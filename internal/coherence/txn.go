package coherence

import "repro/internal/sim"

// This file holds the skeleton every protocol engine builds its
// transactions on. A transaction is a pooled record with an explicit
// step: each place where the flow waits on the interconnect, a memory
// bank or a fixed delay is one Step, and the record hands the waiting
// component a Port for that step instead of a fresh closure. Records
// are recycled once the transaction has finished and every awaited
// arrival has fired, so the steady state of a miss allocates nothing.
// DESIGN.md ("Pooled transaction records") has the invariants.

// Done is the completion callback of one data reference.
type Done = func(at sim.Time, res Result)

// Step numbers one resumption point of a transaction record. Each
// engine enumerates its own steps, below MaxSteps.
type Step uint8

// MaxSteps bounds the number of steps of one record type.
const MaxSteps = 16

// Stepper is the engine side of a transaction record: Resume runs one
// step. node is the visited node when the step fires as a ring visit or
// a bus snoop, and -1 when it fires as an arrival.
type Stepper interface {
	Resume(step Step, node int, at sim.Time)
}

// Port is one continuation point of a record. It is the
// sim.EventHandler (and bank, ring and bus completion target) that
// resumes the record at a fixed step. A port holds no per-event state,
// so several arrivals may be outstanding on the same port at once.
type Port struct {
	r    *Record
	step Step
}

// OnEvent resumes the record at the port's step as an arrival. An
// arrival that lands after the transaction finished releases the record
// once it is the last one outstanding.
func (p *Port) OnEvent(at sim.Time) {
	r := p.r
	r.pending--
	finished := !r.open
	r.self.Resume(p.step, -1, at)
	if finished && r.pending == 0 {
		r.pool.put(r)
	}
}

// OnVisit resumes the record at the port's step as a visit: a
// broadcast probe passing node, or a bus snoop at node. Visits precede
// their message's arrival and are not counted as pending.
func (p *Port) OnVisit(node int, at sim.Time) { p.r.self.Resume(p.step, node, at) }

// Record is the skeleton an engine's transaction record embeds: the
// count of awaited arrivals, the completion callback, and one Port per
// step.
type Record struct {
	self    Stepper
	pool    *Pool
	pending int32
	open    bool
	done    Done
	ports   [MaxSteps]Port
}

// Bind ties a freshly allocated record to the engine-side record that
// embeds it and to the pool that recycles it. Call it once, when the
// record is first created.
func (r *Record) Bind(self Stepper, pool *Pool) {
	r.self, r.pool = self, pool
	for i := range r.ports {
		r.ports[i] = Port{r: r, step: Step(i)}
	}
}

// Open starts a transaction on the record; done (nil for write-backs,
// which complete no reference) fires at Finish.
func (r *Record) Open(done Done) {
	r.open, r.done, r.pending = true, done, 0
}

// Await returns the port for step and counts one pending arrival on it.
// Every Await must be matched by exactly one arrival (Port.OnEvent).
func (r *Record) Await(s Step) *Port {
	r.pending++
	return &r.ports[s]
}

// Finish completes the transaction and runs the completion callback.
// The record returns to its pool first when no arrival is outstanding,
// so the caller must not touch it after Finish; late arrivals still
// resume it and the last of them releases it.
func (r *Record) Finish(at sim.Time, res Result) {
	done := r.done
	r.Close()
	if done != nil {
		done(at, res)
	}
}

// Close completes a transaction without running a callback — the end
// of a write-back's own work once its message is on its way. Like
// Finish, it leaves the record to its outstanding arrivals.
func (r *Record) Close() {
	r.done, r.open = nil, false
	if r.pending == 0 {
		r.pool.put(r)
	}
}

// Pool is the free list of one engine's transaction records. Like the
// kernel it belongs to one simulation goroutine.
type Pool struct{ free []*Record }

// Get returns a recycled record's engine side, or nil when the pool is
// empty and the engine must allocate (and Bind) a new one.
func (p *Pool) Get() Stepper {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	r := p.free[n-1]
	p.free = p.free[:n-1]
	return r.self
}

func (p *Pool) put(r *Record) { p.free = append(p.free, r) }
