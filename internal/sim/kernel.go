// Package sim provides a deterministic discrete-event simulation kernel.
//
// It plays the role that the CSIM library played in the original paper:
// a clock, an event calendar, and a handful of queueing primitives. All
// simulated time is kept in integer picoseconds so that ring clocks
// (2 ns and 4 ns stages) and arbitrary processor cycle times (1–20 ns)
// compose without rounding error.
//
// The kernel is event-driven rather than process-oriented: model code
// schedules closures or pooled EventHandler objects at absolute or
// relative times. Events scheduled for the same instant fire in
// scheduling order, which makes runs exactly reproducible for a given
// seed.
//
// # Event calendar
//
// The calendar is a two-tier calendar queue specialized for this
// workload's near-term, clock-aligned events (2 ns / 4 ns ring stages,
// 1–20 ns processor cycles, 140 ns memory banks):
//
//   - A timing wheel of wheelLen buckets, each one bucketWidth of
//     simulated time wide, covers the near future. Insertion and
//     removal are O(1) amortized; each bucket is a tiny binary heap
//     ordered by (time, seq) so exact FIFO tie-break semantics are
//     preserved.
//   - Events beyond the wheel horizon go to an overflow min-heap and
//     migrate into the wheel as the base advances — the heap is the
//     far-future tier, never the hot path.
//
// Event records live in a pooled, index-addressed slab: scheduling
// allocates nothing once the slab and buckets have warmed up, and
// records are recycled through a free list as they fire. See DESIGN.md
// ("Zero-allocation event core") for the invariants. A drained kernel
// hands the slab, free list, wheel and overflow heap to the next
// kernel (Release), so a process that builds many machines warms the
// calendar once.
package sim

import (
	"fmt"
	"math/bits"
	"sync"
)

// Time is an absolute simulation time in picoseconds.
type Time int64

// Duration is a span of simulation time in picoseconds.
type Duration = Time

// Common time units, all expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String formats the time with a nanosecond unit, the natural scale of
// the systems modeled here.
func (t Time) String() string { return fmt.Sprintf("%.3fns", t.Nanoseconds()) }

// EventHandler is the allocation-free scheduling target: models keep a
// pooled handler object and pass it to AtEvent/AfterEvent instead of
// allocating a fresh closure per event. The same handler may be
// rescheduled from within OnEvent (the ring's slot sweeps chain this
// way).
type EventHandler interface {
	// OnEvent fires the event; at is the event's timestamp, which
	// equals Kernel.Now() during the call.
	OnEvent(at Time)
}

// EventID names a cancelable event scheduled with Schedule. The zero
// value is invalid. IDs are generation-tagged slab indices, so an ID
// held after its event fired (or was canceled) safely fails Cancel.
type EventID uint64

// Calendar geometry. bucketShift trades wheel span against per-bucket
// occupancy: 2048 ps buckets put each 2 ns ring cycle in its own
// bucket, and wheelLen of 4096 spans ~8.4 us — past every latency
// constant in the models (the 140 ns banks included), so only genuinely
// far-future events (idle processors' long compute bursts) touch the
// overflow heap.
const (
	bucketShift = 11
	bucketWidth = Time(1) << bucketShift
	wheelLen    = 4096
	wheelMask   = wheelLen - 1
	// wheelWords sizes the occupancy bitmap: one bit per bucket.
	wheelWords = wheelLen / 64
	// bucketCap pre-sizes every bucket heap. The buckets are carved
	// from one backing array, so the wheel's first revolution does not
	// grow wheelLen heaps from empty one append at a time; a bucket
	// that outgrows its share reallocates on its own. Eight would
	// remove most of those reallocations but allocates more bytes per
	// run on every benchmark shape (DESIGN.md §10.5).
	bucketCap = 4
)

// eventRec is one slab-resident calendar entry. Exactly one of fn / h
// is set. gen tags the record's reuse generation for EventID validity.
type eventRec struct {
	at  Time
	seq uint64
	fn  func()
	h   EventHandler
	gen uint32
	// canceled marks a record logically removed; it is skipped and
	// freed when its (time, seq) position is reached.
	canceled bool
}

// Kernel is a discrete-event simulation engine. The zero value is ready
// to use with the clock at time zero.
type Kernel struct {
	now     Time
	seq     uint64
	stopped bool
	fired   uint64

	// Pooled event slab + free list (indices into recs).
	recs []eventRec
	free []uint32

	// Near-term timing wheel. buckets[i] is a binary min-heap of slab
	// indices ordered by (at, seq); bucket i holds exactly the events
	// whose tick (at >> bucketShift) is congruent to i and inside
	// [baseTick, baseTick+wheelLen).
	buckets  [][]uint32
	baseTick int64
	baseIdx  int
	// occ has bit i set iff buckets[i] is non-empty, so the base scan
	// jumps over empty spans with TrailingZeros64 instead of walking
	// them bucket by bucket.
	occ [wheelWords]uint64
	// wheelCount / overflow track structural entries (canceled records
	// included until reached); live is the count of uncanceled events.
	wheelCount int
	overflow   []uint32
	live       int
	// slab is SlabSize once Release has handed the slab on.
	slab int
}

// kernels holds fresh kernels that carry a released kernel's calendar
// storage: every record zeroed, every bucket and list empty, the
// capacities kept.
var kernels sync.Pool // of *Kernel

// NewKernel returns a kernel with the clock at zero, on a released
// kernel's calendar storage when one is pooled.
func NewKernel() *Kernel {
	if k, _ := kernels.Get().(*Kernel); k != nil {
		return k
	}
	return &Kernel{}
}

// Release hands the drained calendar's storage to the next NewKernel.
// Now, Fired and SlabSize stay readable; the kernel is not meant to
// schedule again, and if it does it starts from a cold calendar. It
// panics if events are still pending.
func (k *Kernel) Release() {
	if k.live != 0 {
		panic(fmt.Sprintf("sim: Release with %d events pending", k.live))
	}
	if k.recs == nil && k.buckets == nil {
		return
	}
	k.slab = len(k.recs)
	clear(k.recs)
	for i := range k.buckets {
		k.buckets[i] = k.buckets[i][:0]
	}
	// The pooled wheel skips insert's lazy set-up, whose base is the
	// clock's tick: zero, as on the fresh kernel that carries it.
	kernels.Put(&Kernel{recs: k.recs[:0], free: k.free[:0], buckets: k.buckets, overflow: k.overflow[:0]})
	k.recs, k.free, k.buckets, k.overflow = nil, nil, nil, nil
	k.occ, k.wheelCount = [wheelWords]uint64{}, 0
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Fired reports how many events have been dispatched so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending reports how many events are waiting on the calendar.
func (k *Kernel) Pending() int { return k.live }

// SlabSize reports how many event records the calendar has ever
// allocated — the pool's high-water mark, an allocation observability
// counter surfaced by the serving layer.
func (k *Kernel) SlabSize() int { return max(len(k.recs), k.slab) }

// less orders two slab records by (time, seq).
func (k *Kernel) less(a, b uint32) bool {
	ra, rb := &k.recs[a], &k.recs[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

// alloc takes a record from the free list (or grows the slab) and
// initializes it. Exactly one of fn/h must be non-nil.
func (k *Kernel) alloc(at Time, seq uint64, fn func(), h EventHandler) uint32 {
	var idx uint32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.recs = append(k.recs, eventRec{gen: 1})
		idx = uint32(len(k.recs) - 1)
	}
	r := &k.recs[idx]
	r.at, r.seq, r.fn, r.h, r.canceled = at, seq, fn, h, false
	return idx
}

// release recycles a record. The generation bump invalidates any
// outstanding EventID for it.
func (k *Kernel) release(idx uint32) {
	r := &k.recs[idx]
	r.fn, r.h = nil, nil
	r.gen++
	k.free = append(k.free, idx)
}

// bucketPush inserts idx into the heap b (sift-up).
func (k *Kernel) bucketPush(b *[]uint32, idx uint32) {
	*b = append(*b, idx)
	h := *b
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// bucketPop removes and returns the minimum of heap b.
func (k *Kernel) bucketPop(b *[]uint32) uint32 {
	h := *b
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*b = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && k.less(h[r], h[l]) {
			m = r
		}
		if !k.less(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// insert places a record into the wheel or the overflow tier.
func (k *Kernel) insert(idx uint32) {
	if k.buckets == nil {
		k.buckets = make([][]uint32, wheelLen)
		backing := make([]uint32, wheelLen*bucketCap)
		for i := range k.buckets {
			k.buckets[i] = backing[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
		}
		k.baseTick = int64(k.now >> bucketShift)
		k.baseIdx = int(k.baseTick) & wheelMask
	}
	tick := int64(k.recs[idx].at >> bucketShift)
	if tick < k.baseTick {
		// The wheel base can sit past the clock after a jump to the
		// overflow minimum (e.g. when that event was canceled and the
		// run ended without dispatching it).
		// Events landing behind the base go into the base bucket: each
		// bucket is a (time, seq) heap, so they still fire first.
		tick = k.baseTick
	}
	if tick < k.baseTick+wheelLen {
		b := int(tick) & wheelMask
		k.bucketPush(&k.buckets[b], idx)
		k.occ[b>>6] |= 1 << uint(b&63)
		k.wheelCount++
		return
	}
	k.bucketPush(&k.overflow, idx)
}

// drainOverflow migrates overflow records that now fall inside the
// wheel horizon. Amortized O(1) per event: each record migrates at most
// once.
func (k *Kernel) drainOverflow() {
	horizon := k.baseTick + wheelLen
	for len(k.overflow) > 0 && int64(k.recs[k.overflow[0]].at>>bucketShift) < horizon {
		idx := k.bucketPop(&k.overflow)
		b := int(k.recs[idx].at>>bucketShift) & wheelMask
		k.bucketPush(&k.buckets[b], idx)
		k.occ[b>>6] |= 1 << uint(b&63)
		k.wheelCount++
	}
}

// skipEmpty advances baseIdx/baseTick to the next occupied bucket using
// the occupancy bitmap; the caller guarantees wheelCount > 0, so an
// occupied bucket exists within one revolution.
func (k *Kernel) skipEmpty() {
	idx := k.baseIdx
	w := idx >> 6
	if word := k.occ[w] >> uint(idx&63); word != 0 {
		n := bits.TrailingZeros64(word)
		k.baseIdx = idx + n
		k.baseTick += int64(n)
		return
	}
	dist := 64 - idx&63
	for i := 1; ; i++ {
		wi := (w + i) & (wheelWords - 1)
		if word := k.occ[wi]; word != 0 {
			n := bits.TrailingZeros64(word)
			k.baseIdx = wi<<6 + n
			k.baseTick += int64(dist + n)
			return
		}
		dist += 64
	}
}

// peekMin returns the slab index of the earliest pending event without
// removing it, discarding canceled records as it goes.
func (k *Kernel) peekMin() (uint32, bool) {
	for {
		if k.wheelCount == 0 {
			if len(k.overflow) == 0 {
				return 0, false
			}
			// Jump the wheel base straight to the overflow minimum —
			// quiescent spans cost one jump, not a bucket-by-bucket
			// crawl.
			k.baseTick = int64(k.recs[k.overflow[0]].at >> bucketShift)
			k.baseIdx = int(k.baseTick) & wheelMask
			k.drainOverflow()
			continue
		}
		if len(k.buckets[k.baseIdx]) == 0 {
			k.skipEmpty()
		}
		k.drainOverflow()
		b := &k.buckets[k.baseIdx]
		top := (*b)[0]
		if k.recs[top].canceled {
			k.bucketPop(b)
			k.wheelCount--
			if len(*b) == 0 {
				k.occ[k.baseIdx>>6] &^= 1 << uint(k.baseIdx&63)
			}
			k.release(top)
			continue
		}
		return top, true
	}
}

// popMin removes and returns the earliest pending event.
func (k *Kernel) popMin() (uint32, bool) {
	idx, ok := k.peekMin()
	if !ok {
		return 0, false
	}
	b := &k.buckets[k.baseIdx]
	k.bucketPop(b)
	k.wheelCount--
	if len(*b) == 0 {
		k.occ[k.baseIdx>>6] &^= 1 << uint(k.baseIdx&63)
	}
	return idx, true
}

// schedule validates and enqueues one event with a fresh sequence
// number.
func (k *Kernel) schedule(t Time, fn func(), h EventHandler) uint32 {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	idx := k.alloc(t, k.seq, fn, h)
	k.seq++
	k.insert(idx)
	k.live++
	return idx
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a model bug, never a recoverable state.
func (k *Kernel) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	k.schedule(t, fn, nil)
}

// After schedules fn to run d picoseconds from now.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now+d, fn)
}

// AtEvent schedules h to fire at absolute time t. This is the
// zero-allocation scheduling path: h is typically a pooled object, and
// the kernel stores it in a recycled slab record, so steady-state
// scheduling performs no heap allocation.
func (k *Kernel) AtEvent(t Time, h EventHandler) {
	if h == nil {
		panic("sim: scheduling nil event handler")
	}
	k.schedule(t, nil, h)
}

// AfterEvent schedules h to fire d picoseconds from now.
func (k *Kernel) AfterEvent(d Duration, h EventHandler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.AtEvent(k.now+d, h)
}

// Schedule is AtEvent returning a handle that Cancel accepts.
func (k *Kernel) Schedule(t Time, h EventHandler) EventID {
	if h == nil {
		panic("sim: scheduling nil event handler")
	}
	idx := k.schedule(t, nil, h)
	return EventID(uint64(idx)<<32 | uint64(k.recs[idx].gen))
}

// Cancel removes a scheduled event. It reports whether the event was
// still pending: canceling an event that already fired (or was already
// canceled) returns false and does nothing. The calendar slot is
// reclaimed lazily when its (time, seq) position is reached.
func (k *Kernel) Cancel(id EventID) bool {
	idx := uint32(uint64(id) >> 32)
	gen := uint32(id)
	if int(idx) >= len(k.recs) {
		return false
	}
	r := &k.recs[idx]
	if r.gen != gen || r.canceled || (r.fn == nil && r.h == nil) {
		return false
	}
	r.canceled = true
	k.live--
	return true
}

// ReserveSeq reserves n consecutive FIFO positions at the current
// scheduling point and returns the first. Event sources that expand
// into multiple future events over time (the ring's slot sweeps) use
// reserved positions with AtReserved so their events interleave with
// ordinary At events exactly as if each had been scheduled here and
// now — the property the determinism gate depends on.
func (k *Kernel) ReserveSeq(n int) uint64 {
	if n < 0 {
		panic("sim: negative seq reservation")
	}
	s := k.seq
	k.seq += uint64(n)
	return s
}

// AtReserved schedules h at time t occupying a FIFO position
// previously obtained from ReserveSeq. t must not be in the past and
// seq must come from an earlier reservation.
func (k *Kernel) AtReserved(t Time, seq uint64, h EventHandler) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if h == nil {
		panic("sim: scheduling nil event handler")
	}
	if seq >= k.seq {
		panic("sim: AtReserved seq was never reserved")
	}
	idx := k.alloc(t, seq, nil, h)
	k.insert(idx)
	k.live++
}

// dispatch fires the record: it advances the clock, recycles the slab
// slot (so the handler may immediately reschedule through it), then
// runs the callback.
func (k *Kernel) dispatch(idx uint32) {
	r := &k.recs[idx]
	at, fn, h := r.at, r.fn, r.h
	k.now = at
	k.fired++
	k.live--
	k.release(idx)
	if fn != nil {
		fn()
		return
	}
	h.OnEvent(at)
}

// Stop makes the currently executing Run return once the current
// event handler finishes. Stop only affects the run in progress: Run
// clears the stop flag when it returns (and when it starts), so a
// stopped kernel can be reused — calling Stop outside a run is a
// no-op.
func (k *Kernel) Stop() { k.stopped = true }

// Run dispatches events until the calendar is empty or Stop is called.
// It returns the final simulation time. The stop flag is reset on
// return, so Run may be called again to resume from the calendar.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped {
		idx, ok := k.popMin()
		if !ok {
			break
		}
		k.dispatch(idx)
	}
	k.stopped = false
	return k.now
}
