package ring

import (
	"fmt"

	"repro/internal/sim"
)

// Broadcast, used as a destination, sends a message around the whole
// ring; every other node observes it and the sender removes it — the
// snooping protocol's probe transmission mode.
const Broadcast = -1

// slot is the dynamic state of one circulating slot.
type slot struct {
	// busyFrom marks the reservation instant: from this moment no other
	// node may plan on this slot. The physical grab happens at the
	// reserved pass time, which may be slightly later; the gap (always
	// under one round trip) is accounted as occupied, a conservative
	// approximation documented in DESIGN.md.
	busyFrom sim.Time
	// busyUntil is when the in-flight message is removed (slot head at
	// the remover's interface) and the slot becomes reusable.
	busyUntil sim.Time
	// lastRemover / lastRemoveTime implement the anti-starvation rule:
	// the remover may not reuse the slot at the very pass on which it
	// removed a message.
	lastRemover    int
	lastRemoveTime sim.Time
}

// classStats accumulates per-slot-class accounting.
type classStats struct {
	messages  uint64
	waitSum   sim.Time // reservation -> physical grab
	transit   sim.Time // grab -> removal, the true occupancy integral
	starveHit uint64   // times the anti-starvation rule deferred a grab
}

// Ring is a live slotted ring attached to a simulation kernel.
type Ring struct {
	Geo Geometry
	// OnMessage, when non-nil, observes every message at reservation
	// time with its slot class, physical grab time and removal time —
	// the occupancy feed for the obs tracer's per-class timelines. The
	// nil default costs Send a single branch.
	OnMessage func(class SlotClass, grab, removal sim.Time)

	k     *sim.Kernel
	slots []slot
	// byClass[c] lists the indices of class-c slots in ascending order,
	// so a reservation scan touches only candidate slots (the batched
	// advancement of quiescent spans: slots of other classes cost zero).
	byClass [NumSlotClasses][]int32
	pool    msgPool
	stats   [NumSlotClasses]classStats
	start   sim.Time
}

// New returns a ring with the given configuration attached to k.
func New(k *sim.Kernel, cfg Config) *Ring {
	g := NewGeometry(cfg)
	r := &Ring{Geo: g, k: k, slots: make([]slot, g.NumSlots()), start: k.Now()}
	for i := range r.slots {
		r.slots[i].lastRemover = -2 // no remover yet
	}
	for i, c := range g.slotClass {
		r.byClass[c] = append(r.byClass[c], int32(i))
	}
	return r
}

// Kernel returns the kernel the ring is attached to.
func (r *Ring) Kernel() *sim.Kernel { return r.k }

// ResetStats zeroes all message and utilization statistics; subsequent
// figures cover only the window after the reset. In-flight slot
// occupancy is preserved (only the accounting restarts), so a reset in
// the middle of traffic slightly under-counts transit already begun —
// negligible over any real measurement window.
func (r *Ring) ResetStats() {
	r.stats = [NumSlotClasses]classStats{}
	r.start = r.k.Now()
}

// nextPass returns the earliest time >= from at which slot i's head
// passes node n.
func (r *Ring) nextPass(i, n int, from sim.Time) sim.Time {
	g := &r.Geo
	S := sim.Time(g.TotalStages)
	clk := g.ClockPS
	rtt := S * clk
	// Phase at which the head aligns with node n, in [0, rtt).
	d := g.NodePos(n) - g.slotStart[i]
	if d < 0 {
		d += g.TotalStages
	}
	phase := sim.Time(d) * clk
	if from <= phase {
		return phase
	}
	k := (from - phase + rtt - 1) / rtt
	return phase + k*rtt
}

// earliestGrab returns the earliest pass time >= now at which node src
// could legitimately claim slot i.
func (r *Ring) earliestGrab(i, src int, now sim.Time) sim.Time {
	s := &r.slots[i]
	from := now
	if s.busyUntil > from {
		from = s.busyUntil
	}
	t := r.nextPass(i, src, from)
	if !r.Geo.DisableStarvationRule && src == s.lastRemover && t == s.lastRemoveTime {
		r.stats[r.Geo.slotClass[i]].starveHit++
		t = r.nextPass(i, src, t+1)
	}
	return t
}

// Send transmits one message from src in the earliest usable slot of
// the given class.
//
// If dst == Broadcast the message traverses the whole ring and is
// removed by src after one round trip; visit (if non-nil) fires at
// every other node as the slot head passes it — this is how snooping
// probes are observed. Otherwise the message is removed at dst and
// visit fires at the nodes strictly between src and dst.
//
// done (if non-nil) fires at the removal time. Send returns the grab
// time (when the slot head physically passed src) and the removal time.
func (r *Ring) Send(src, dst int, class SlotClass, visit func(node int, at sim.Time), done func(at sim.Time)) (grab, removal sim.Time) {
	grab, removal = r.reserve(src, dst, class)
	launchSweep(r.k, &r.pool, &r.Geo, src, dst, grab, removal, target{visit: visit, done: done})
	return grab, removal
}

// Handler is the allocation-free target of SendEvent: a pooled object
// that observes a broadcast's visits and the message's removal.
type Handler interface {
	// OnEvent fires at the removal time.
	sim.EventHandler
	// OnVisit fires as a broadcast passes each node other than its
	// sender.
	OnVisit(node int, at sim.Time)
}

// SendEvent is Send for pooled handlers. A Broadcast visits h at every
// other node; a point-to-point message has no visits (no protocol
// engine observes the nodes between source and destination). h.OnEvent
// fires at the removal time. The kernel sequence numbers consumed are
// exactly those of the equivalent Send, so the two are interchangeable
// without perturbing a run.
func (r *Ring) SendEvent(src, dst int, class SlotClass, h Handler) (grab, removal sim.Time) {
	grab, removal = r.reserve(src, dst, class)
	launchSweep(r.k, &r.pool, &r.Geo, src, dst, grab, removal, target{h: h, visits: dst == Broadcast})
	return grab, removal
}

// reserve claims the slot of the class with the earliest usable pass at
// src and accounts the message, returning its grab and removal times.
func (r *Ring) reserve(src, dst int, class SlotClass) (grab, removal sim.Time) {
	g := &r.Geo
	if src < 0 || src >= g.Nodes {
		panic(fmt.Sprintf("ring: bad source node %d", src))
	}
	if dst != Broadcast && (dst < 0 || dst >= g.Nodes || dst == src) {
		panic(fmt.Sprintf("ring: bad destination %d from %d", dst, src))
	}
	now := r.k.Now()

	// Reserve the slot of this class with the earliest grab. The scan
	// covers every candidate (not just until a same-pass hit) because
	// the anti-starvation accounting in earliestGrab is per-slot.
	cand := r.byClass[class]
	if len(cand) == 0 {
		panic(fmt.Sprintf("ring: no slots of class %v configured", class))
	}
	best, bestAt := int(cand[0]), r.earliestGrab(int(cand[0]), src, now)
	for _, ci := range cand[1:] {
		i := int(ci)
		if t := r.earliestGrab(i, src, now); t < bestAt {
			best, bestAt = i, t
		}
	}
	grab = bestAt

	remover := dst
	if dst == Broadcast {
		removal = grab + g.RoundTrip()
		remover = src
	} else {
		removal = grab + g.PropTime(src, dst)
	}
	s := &r.slots[best]
	s.busyFrom = now
	s.busyUntil = removal
	s.lastRemover = remover
	s.lastRemoveTime = removal

	st := &r.stats[class]
	st.messages++
	st.waitSum += grab - now
	st.transit += removal - grab
	if r.OnMessage != nil {
		r.OnMessage(class, grab, removal)
	}
	return grab, removal
}

// Messages reports how many messages of the class have been sent.
func (r *Ring) Messages(class SlotClass) uint64 { return r.stats[class].messages }

// MeanWait reports the average reservation-to-grab wait for the class.
func (r *Ring) MeanWait(class SlotClass) sim.Time {
	st := &r.stats[class]
	if st.messages == 0 {
		return 0
	}
	return st.waitSum / sim.Time(st.messages)
}

// StarvationDeferrals reports how often the anti-starvation rule pushed
// a grab to the next round trip.
func (r *Ring) StarvationDeferrals(class SlotClass) uint64 { return r.stats[class].starveHit }

// Utilization reports the time-averaged fraction of slots of the class
// carrying a message, from ring creation until now. This is the paper's
// "average ring slot utilization" restricted to one class.
func (r *Ring) Utilization(class SlotClass) float64 {
	elapsed := r.k.Now() - r.start
	n := r.Geo.SlotsOfClass(class)
	if elapsed <= 0 || n == 0 {
		return 0
	}
	return float64(r.stats[class].transit) / float64(elapsed*sim.Time(n))
}

// OverallUtilization reports the slot utilization across all classes,
// the quantity plotted in Figures 3, 4 and 6.
func (r *Ring) OverallUtilization() float64 {
	elapsed := r.k.Now() - r.start
	if elapsed <= 0 {
		return 0
	}
	var transit sim.Time
	for c := 0; c < NumSlotClasses; c++ {
		transit += r.stats[c].transit
	}
	return float64(transit) / float64(elapsed*sim.Time(r.Geo.NumSlots()))
}
