package sim

import "testing"

// This file cross-checks the calendar-queue kernel, event for event,
// against a deliberately naive reference implementation: a flat list
// scanned for the (time, seq) minimum on every dispatch. The same
// seeded random workload — cascading schedules at mixed horizons plus
// random cancellations — is driven through both; any divergence in
// dispatch order, timestamps, clock placement, or Cancel results is a
// calendar bug.

// refEvent is one entry in the reference calendar.
type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	live     bool
}

// refKernel is the reference scheduler: correct by inspection, O(n) per
// dispatch.
type refKernel struct {
	now Time
	seq uint64
	evs []refEvent
}

func (r *refKernel) after(d Duration, fn func()) int {
	r.evs = append(r.evs, refEvent{at: r.now + d, seq: r.seq, fn: fn, live: true})
	r.seq++
	return len(r.evs) - 1
}

func (r *refKernel) cancel(i int) bool {
	e := &r.evs[i]
	if !e.live || e.canceled {
		return false
	}
	e.canceled = true
	return true
}

func (r *refKernel) run() {
	for {
		best := -1
		for i := range r.evs {
			e := &r.evs[i]
			if !e.live {
				continue
			}
			if best < 0 || e.at < r.evs[best].at ||
				(e.at == r.evs[best].at && e.seq < r.evs[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		e := &r.evs[best]
		e.live = false
		if e.canceled {
			continue
		}
		r.now = e.at
		e.fn()
	}
}

// calendarAPI is the scheduling surface the randomized workload drives;
// both the real kernel and the reference implement it.
type calendarAPI interface {
	now() Time
	after(d Duration, fn func()) (cancel func() bool)
}

type handlerFunc func(Time)

func (f handlerFunc) OnEvent(at Time) { f(at) }

type realCal struct{ k *Kernel }

func (c realCal) now() Time { return c.k.Now() }
func (c realCal) after(d Duration, fn func()) func() bool {
	id := c.k.Schedule(c.k.Now()+d, handlerFunc(func(Time) { fn() }))
	return func() bool { return c.k.Cancel(id) }
}

type refCal struct{ r *refKernel }

func (c refCal) now() Time { return c.r.now }
func (c refCal) after(d Duration, fn func()) func() bool {
	id := c.r.after(d, fn)
	return func() bool { return c.r.cancel(id) }
}

// fireRec logs one observable action: an event firing (id >= 0) or a
// Cancel call's result (id == -1).
type fireRec struct {
	id       int
	at       Time
	canceled bool
}

// driveRandomWorkload runs the seeded workload against cal and returns
// the observation log. Delays are drawn from four regimes to exercise
// every calendar tier: zero (FIFO ties inside one bucket), sub-bucket,
// mid-wheel, and past the wheel horizon (overflow heap + base jumps).
// All randomness is consumed inside event handlers, so identical
// dispatch order implies an identical draw sequence — divergence
// between implementations shows up in the log rather than hiding.
func driveRandomWorkload(cal calendarAPI, seed uint64, run func()) []fireRec {
	rng := NewRand(seed)
	var (
		log     []fireRec
		cancels []func() bool
		nextID  int
		total   int
	)
	const maxEvents = 2500
	var schedule func()
	schedule = func() {
		if total >= maxEvents {
			return
		}
		total++
		id := nextID
		nextID++
		var d Duration
		switch rng.Intn(4) {
		case 0:
			d = 0
		case 1:
			d = Duration(rng.Intn(int(bucketWidth)))
		case 2:
			d = Duration(rng.Intn(64 * int(bucketWidth)))
		default:
			d = Duration(rng.Intn(3 * wheelLen * int(bucketWidth)))
		}
		c := cal.after(d, func() {
			log = append(log, fireRec{id: id, at: cal.now()})
			for n := rng.Intn(3); n > 0; n-- {
				schedule()
			}
			if len(cancels) > 0 && rng.Bool(0.3) {
				ok := cancels[rng.Intn(len(cancels))]()
				log = append(log, fireRec{id: -1, at: cal.now(), canceled: ok})
			}
		})
		cancels = append(cancels, c)
	}
	for i := 0; i < 40; i++ {
		schedule()
	}
	run()
	return log
}

func compareLogs(t *testing.T, name string, got, want []fireRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d log records, reference has %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: log[%d] = %+v, reference %+v", name, i, got[i], want[i])
		}
	}
}

func TestKernelMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		ref := &refKernel{}
		refLog := driveRandomWorkload(refCal{ref}, seed, ref.run)

		k := NewKernel()
		realLog := driveRandomWorkload(realCal{k}, seed, func() { k.Run() })
		compareLogs(t, "Run", realLog, refLog)
		if k.Now() != ref.now {
			t.Fatalf("final clock %v, reference %v", k.Now(), ref.now)
		}
		if k.Pending() != 0 {
			t.Fatalf("Pending() = %d after drain, want 0", k.Pending())
		}
	}
}
