package sim

// Resource is a FIFO server with a fixed number of service slots, the
// moral equivalent of CSIM's facility. Acquire either grants a slot
// immediately or enqueues the caller; Release hands the freed slot to
// the oldest waiter. It is used by the memory banks (single-server) and
// by the bus arbiter's per-node request queues.
type Resource struct {
	k       *Kernel
	name    string
	servers int
	busy    int
	// waiters[head:] is the FIFO of queued requests. Grants advance
	// head instead of reslicing, so the backing array is reused rather
	// than regrown once the queue drains.
	waiters  []waiter
	head     int
	busyArea Time // integral of busy servers over time, for utilization
	lastMark Time
	resetAt  Time // start of the current statistics window
	grants   uint64
	waitSum  Time
	useFree  *useOp // recycled Use operations (zero-alloc steady state)
}

type waiter struct {
	since Time
	fn    func()
	h     Granted
}

// Granted is the allocation-free counterpart of Acquire's callback:
// pooled objects implement it to receive the slot grant without a
// per-request closure.
type Granted interface {
	// OnGrant runs exactly when Acquire's fn would: synchronously on a
	// free slot, otherwise when Release hands the slot over.
	OnGrant()
}

// NewResource returns a resource with the given number of service slots.
func NewResource(k *Kernel, name string, servers int) *Resource {
	if servers <= 0 {
		panic("sim: resource needs at least one server")
	}
	return &Resource{k: k, name: name, servers: servers}
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// Acquire requests a service slot; fn runs (synchronously if a slot is
// free, otherwise when one frees up) once the slot is granted.
func (r *Resource) Acquire(fn func()) {
	if r.busy < r.servers {
		r.mark()
		r.busy++
		r.grants++
		fn()
		return
	}
	r.enqueue(waiter{since: r.k.Now(), fn: fn})
}

// AcquireEvent is Acquire for pooled Granted objects — the
// zero-allocation acquisition path.
func (r *Resource) AcquireEvent(h Granted) {
	if r.busy < r.servers {
		r.mark()
		r.busy++
		r.grants++
		h.OnGrant()
		return
	}
	r.enqueue(waiter{since: r.k.Now(), h: h})
}

// enqueue appends a waiter, first sliding the live queue to the front
// of its backing array when the array is full and has a consumed head.
func (r *Resource) enqueue(w waiter) {
	if r.head > 0 && len(r.waiters) == cap(r.waiters) {
		n := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[n:])
		r.waiters = r.waiters[:n]
		r.head = 0
	}
	r.waiters = append(r.waiters, w)
}

// Release frees one service slot. If anyone is waiting, the slot passes
// directly to the oldest waiter, whose callback runs synchronously.
func (r *Resource) Release() {
	if r.busy == 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if r.head < len(r.waiters) {
		w := r.waiters[r.head]
		r.waiters[r.head] = waiter{}
		r.head++
		if r.head == len(r.waiters) {
			r.waiters, r.head = r.waiters[:0], 0
		}
		r.grants++
		r.waitSum += r.k.Now() - w.since
		if w.fn != nil {
			w.fn()
		} else {
			w.h.OnGrant()
		}
		return
	}
	r.mark()
	r.busy--
}

// useOp is a pooled hold-then-release operation backing Use. One record
// per in-flight Use; recycled through Resource.useFree, so the steady
// state allocates nothing.
type useOp struct {
	r    *Resource
	d    Duration
	done func()
	h    EventHandler
	next *useOp
}

// OnGrant (Granted) starts the service interval once the slot is ours.
func (u *useOp) OnGrant() {
	u.r.k.AfterEvent(u.d, u)
}

// OnEvent (EventHandler) ends the service interval: release the slot and
// run the completion callback. The record returns to the pool first, so
// the callback may start another Use without growing it.
func (u *useOp) OnEvent(at Time) {
	r, done, h := u.r, u.done, u.h
	u.r, u.done, u.h = nil, nil, nil
	u.next = r.useFree
	r.useFree = u
	r.Release()
	switch {
	case done != nil:
		done()
	case h != nil:
		h.OnEvent(at)
	}
}

// Use acquires a slot, holds it for d, then releases it and runs done.
func (r *Resource) Use(d Duration, done func()) { r.use(d, done, nil) }

// UseEvent is Use completing into a pooled handler: h.OnEvent fires
// exactly when Use's done would — the zero-allocation path.
func (r *Resource) UseEvent(d Duration, h EventHandler) { r.use(d, nil, h) }

func (r *Resource) use(d Duration, done func(), h EventHandler) {
	u := r.useFree
	if u == nil {
		u = &useOp{}
	} else {
		r.useFree = u.next
		u.next = nil
	}
	u.r, u.d, u.done, u.h = r, d, done, h
	r.AcquireEvent(u)
}

// QueueLen reports the number of requests waiting for a slot.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.head }

// Busy reports the number of slots currently in service.
func (r *Resource) Busy() int { return r.busy }

// Grants reports the total number of slot grants so far.
func (r *Resource) Grants() uint64 { return r.grants }

// MeanWait reports the average time grants spent queued (zero-wait
// grants included).
func (r *Resource) MeanWait() Time {
	if r.grants == 0 {
		return 0
	}
	return r.waitSum / Time(r.grants)
}

// Utilization reports the time-averaged fraction of slots busy over the
// current statistics window (since creation or the last ResetStats).
func (r *Resource) Utilization() float64 {
	r.mark()
	window := r.k.Now() - r.resetAt
	if window == 0 {
		return 0
	}
	return float64(r.busyArea) / float64(Time(r.servers)*window)
}

func (r *Resource) mark() {
	now := r.k.Now()
	r.busyArea += Time(r.busy) * (now - r.lastMark)
	r.lastMark = now
}

// ResetStats zeroes the utilization and waiting statistics without
// disturbing the queue itself; subsequent Utilization figures cover
// only the window after the reset. Used to exclude warmup transients.
func (r *Resource) ResetStats() {
	r.mark()
	r.busyArea = 0
	r.grants = 0
	r.waitSum = 0
	r.resetAt = r.k.Now()
}
