package ring

import (
	"fmt"

	"repro/internal/sim"
)

// The access-control variants below exist for the related-work ablation
// (Section 5 of the paper): they share the slotted ring's physical
// geometry (same links, same clock, same message sizes) but arbitrate
// access differently. Both expose the same Send shape as *Ring so the
// ablation bench can swap them in behind a tiny interface.

// Sender is the access-control-agnostic transmission interface the
// ablation uses.
type Sender interface {
	// Send transmits a message of the given class from src to dst
	// (Broadcast for a full traversal) and reports grab and removal
	// times; visit and done behave as in Ring.Send.
	Send(src, dst int, class SlotClass, visit func(node int, at sim.Time), done func(at sim.Time)) (grab, removal sim.Time)
}

var (
	_ Sender = (*Ring)(nil)
	_ Sender = (*TokenRing)(nil)
	_ Sender = (*InsertionRing)(nil)
)

// msgStages returns the on-wire length of a message of the class.
func msgStages(g *Geometry, class SlotClass) int {
	if class == BlockSlot {
		return g.BlockStages
	}
	return g.ProbeStages
}

// TokenRing models token-passing access control: a single token
// circulates and only the holder may transmit, so at most one message
// is in flight — the paper's stated disadvantage of token rings.
type TokenRing struct {
	Geo Geometry
	k   *sim.Kernel
	// busyUntil is when the current transmission (and token hand-off)
	// completes; the token is then at tokenAt.
	busyUntil sim.Time
	tokenAt   int
	pool      msgPool
	messages  uint64
	waitSum   sim.Time
	transit   sim.Time
}

// NewTokenRing returns a token-ring with the given physical geometry.
func NewTokenRing(k *sim.Kernel, cfg Config) *TokenRing {
	return &TokenRing{Geo: NewGeometry(cfg), k: k}
}

// Send implements Sender. The sender first waits for the ring to go
// idle and the token to reach it; the transmission then occupies the
// ring for the propagation plus message length.
func (t *TokenRing) Send(src, dst int, class SlotClass, visit func(node int, at sim.Time), done func(at sim.Time)) (grab, removal sim.Time) {
	g := &t.Geo
	if src < 0 || src >= g.Nodes {
		panic(fmt.Sprintf("ring: bad source node %d", src))
	}
	now := t.k.Now()
	start := now
	if t.busyUntil > start {
		start = t.busyUntil
	}
	// Token travels from its current position to src.
	grab = start + g.PropTime(t.tokenAt, src)
	var span int
	if dst == Broadcast {
		span = g.TotalStages
	} else {
		span = g.DistStages(src, dst)
	}
	// The message tail clears the path span stages plus its own length
	// after the grab; the token is released at the destination.
	removal = grab + sim.Time(span+msgStages(g, class))*g.ClockPS
	t.busyUntil = removal
	if dst == Broadcast {
		t.tokenAt = src
	} else {
		t.tokenAt = dst
	}
	t.messages++
	t.waitSum += grab - now
	t.transit += removal - grab

	launchSweep(t.k, &t.pool, g, src, dst, grab, removal, target{visit: visit, done: done})
	return grab, removal
}

// MeanWait reports the average token-acquisition wait.
func (t *TokenRing) MeanWait() sim.Time {
	if t.messages == 0 {
		return 0
	}
	return t.waitSum / sim.Time(t.messages)
}

// InsertionRing approximates register-insertion access control (the SCI
// choice): a node inserts immediately when its output link is free; a
// node that is transmitting buffers passing traffic in a bypass FIFO,
// delaying it until the local transmission drains. The model is
// cut-through: a message holds its *source* output link for its own
// length, and at each downstream node it merely waits (without holding)
// for that node's output to go idle — the bypass-FIFO delay — then
// propagates. Unloaded latency is thus pure propagation (the paper's
// light-load advantage over slotted rings), while the delay grows with
// the activity of the nodes along the path (the paper's heavy-load,
// position-dependent unfairness).
type InsertionRing struct {
	Geo   Geometry
	k     *sim.Kernel
	links []*sim.Resource

	messages uint64
	waitSum  sim.Time
}

// NewInsertionRing returns a register-insertion ring with the given
// physical geometry.
func NewInsertionRing(k *sim.Kernel, cfg Config) *InsertionRing {
	g := NewGeometry(cfg)
	ir := &InsertionRing{Geo: g, k: k, links: make([]*sim.Resource, g.Nodes)}
	for i := range ir.links {
		ir.links[i] = sim.NewResource(k, fmt.Sprintf("link%d", i), 1)
	}
	return ir
}

// Send implements Sender. The message acquires each link on its path in
// turn; per-hop forwarding latency is the inter-node stage distance,
// and a busy link (its owner node transmitting) delays the message —
// the bypass-FIFO effect.
func (ir *InsertionRing) Send(src, dst int, class SlotClass, visit func(node int, at sim.Time), done func(at sim.Time)) (grab, removal sim.Time) {
	g := &ir.Geo
	if src < 0 || src >= g.Nodes {
		panic(fmt.Sprintf("ring: bad source node %d", src))
	}
	now := ir.k.Now()
	ir.messages++

	hops := g.Nodes // broadcast: back to src
	if dst != Broadcast {
		hops = (dst - src + g.Nodes) % g.Nodes
	}
	hold := sim.Time(msgStages(g, class)) * g.ClockPS

	// Walk the path hop by hop. The source holds its output link for
	// the message length; downstream hops wait for the local output to
	// idle (bypass FIFO) without holding it, then propagate.
	var arrived func(hop int, at sim.Time)
	grabbed := sim.Time(-1)
	arrived = func(hop int, at sim.Time) {
		node := (src + hop) % g.Nodes
		if hop > 0 && hop < hops && visit != nil {
			visit(node, at)
		}
		if hop == hops {
			if done != nil {
				done(at)
			}
			return
		}
		link := ir.links[node]
		next := (node + 1) % g.Nodes
		prop := g.PropTime(node, next)
		if hop == 0 {
			link.Acquire(func() {
				start := ir.k.Now()
				grabbed = start
				ir.waitSum += start - now
				ir.k.After(hold, func() { link.Release() })
				ir.k.After(prop, func() { arrived(1, ir.k.Now()) })
			})
			return
		}
		// Bypass: queue for the link to observe its backlog, release
		// immediately, then forward.
		link.Acquire(func() {
			link.Release()
			ir.k.After(prop, func() { arrived(hop+1, ir.k.Now()) })
		})
	}
	arrived(0, now)
	// Register insertion has no slot to reserve; grab/removal are only
	// estimates here (exact times flow through the callbacks).
	est := now + sim.Time(hops)*hold
	if grabbed >= 0 {
		return grabbed, est
	}
	return now, est
}

// MeanInsertWait reports the average wait before first insertion.
func (ir *InsertionRing) MeanInsertWait() sim.Time {
	if ir.messages == 0 {
		return 0
	}
	return ir.waitSum / sim.Time(ir.messages)
}

// LinkUtilization reports the mean utilization across links.
func (ir *InsertionRing) LinkUtilization() float64 {
	var sum float64
	for _, l := range ir.links {
		sum += l.Utilization()
	}
	return sum / float64(len(ir.links))
}
