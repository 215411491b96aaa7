package ring

import "repro/internal/sim"

// The sweep machinery below is the allocation-free engine behind the
// visit/done callbacks of Ring.Send and TokenRing.Send. A message that
// passes k downstream nodes used to schedule k+1 independent closures,
// each heap-allocated and boxed through the event calendar; now a single
// pooled sweepMsg record chains itself from hop to hop, holding exactly
// one calendar entry per in-flight message and allocating nothing in the
// steady state.
//
// Determinism contract: the seed implementation assigned one kernel
// sequence number per visit (in downstream order) plus one for the
// removal, all claimed at Send time. launchSweep reserves the same
// count of consecutive sequence numbers up front (sim.Kernel.ReserveSeq)
// and replays them one per hop via AtReserved, so the global (time, seq)
// dispatch order — and therefore every metric — is bit-identical to the
// per-closure scheduler it replaces.

// hop is one precomputed downstream visit: the node index and its
// distance from the source in ring stages.
type hop struct {
	node int32
	d    int32
}

// msgPool recycles sweepMsg records; each ring variant owns one. Not
// safe for concurrent use — like the kernel itself, a ring belongs to
// one simulation goroutine.
type msgPool struct{ free *sweepMsg }

func (p *msgPool) get() *sweepMsg {
	m := p.free
	if m == nil {
		return &sweepMsg{pool: p}
	}
	p.free = m.next
	m.next = nil
	return m
}

// target is where one message's visits and removal are delivered:
// either Send's visit/done closures, or a SendEvent Handler with visits
// requested explicitly.
type target struct {
	visit  func(node int, at sim.Time)
	done   func(at sim.Time)
	h      Handler
	visits bool
}

func (t *target) hasVisits() bool { return t.visit != nil || (t.h != nil && t.visits) }
func (t *target) hasDone() bool   { return t.done != nil || t.h != nil }

func (t *target) fireVisit(node int, at sim.Time) {
	if t.h != nil {
		t.h.OnVisit(node, at)
		return
	}
	t.visit(node, at)
}

func (t *target) fireDone(at sim.Time) {
	if t.h != nil {
		t.h.OnEvent(at)
		return
	}
	t.done(at)
}

// sweepMsg is the schedule of one in-flight message: its precomputed
// visit hops and removal instant. It implements sim.EventHandler and
// re-arms itself for the next hop from inside each dispatch.
type sweepMsg struct {
	k       *sim.Kernel
	pool    *msgPool
	clock   sim.Time
	to      target
	grab    sim.Time
	removal sim.Time
	baseSeq uint64
	idx     int
	hops    []hop
	next    *sweepMsg
}

// release returns the record to its pool. Callbacks are dropped so the
// pool does not pin caller state between messages; the hops slice keeps
// its capacity.
func (m *sweepMsg) release() {
	m.to = target{}
	m.hops = m.hops[:0]
	m.idx = 0
	m.next = m.pool.free
	m.pool.free = m
}

// launchSweep schedules the visits and removal of one message sent from
// src toward dst (Broadcast for a full traversal) that grabbed its slot
// at grab and is removed at removal. It reproduces the seed scheduler's
// skip logic and sequence-number consumption exactly; see the package
// comment above.
func launchSweep(k *sim.Kernel, p *msgPool, g *Geometry, src, dst int, grab, removal sim.Time, to target) {
	if !to.hasVisits() && !to.hasDone() {
		return
	}
	m := p.get()
	m.k = k
	m.clock = g.ClockPS
	m.to = to
	m.grab, m.removal = grab, removal
	if to.hasVisits() {
		last := g.Nodes // broadcast: everyone but src
		if dst != Broadcast {
			last = g.DistStages(src, dst) // only nodes strictly before dst
		}
		for i := 1; i < g.Nodes; i++ {
			node := (src + i) % g.Nodes
			d := g.DistStages(src, node)
			if dst != Broadcast && d >= last {
				continue
			}
			m.hops = append(m.hops, hop{node: int32(node), d: int32(d)})
		}
	}
	n := len(m.hops)
	if to.hasDone() {
		n++
	}
	if n == 0 {
		m.release()
		return
	}
	m.baseSeq = k.ReserveSeq(n)
	if len(m.hops) > 0 {
		k.AtReserved(grab+sim.Time(m.hops[0].d)*m.clock, m.baseSeq, m)
	} else {
		k.AtReserved(removal, m.baseSeq, m)
	}
}

// OnEvent fires one step of the sweep: a visit at the current hop, or
// the final removal. The next calendar entry is armed before the user
// callback runs, and on the last step the record is recycled first, so
// callbacks are free to Send again (and reuse this very record) without
// corrupting the sweep.
func (m *sweepMsg) OnEvent(at sim.Time) {
	if m.idx < len(m.hops) {
		h := m.hops[m.idx]
		m.idx++
		to := m.to
		if m.idx < len(m.hops) {
			nh := m.hops[m.idx]
			m.k.AtReserved(m.grab+sim.Time(nh.d)*m.clock, m.baseSeq+uint64(m.idx), m)
		} else if to.hasDone() {
			m.k.AtReserved(m.removal, m.baseSeq+uint64(len(m.hops)), m)
		} else {
			m.release()
		}
		to.fireVisit(int(h.node), at)
		return
	}
	to, removal := m.to, m.removal
	m.release()
	to.fireDone(removal)
}
