// Package bus models the baseline interconnect of Section 4.3: a
// pipelined split-transaction bus in the style of FutureBus+ (IEEE
// 896.x), 64 bits wide, clocked at 50 or 100 MHz, with the address
// phase snooped by every node.
//
// Transactions are split: a request (address) tenure and the matching
// response (data) tenure occupy the bus separately, so the bus is free
// for other traffic while memory is fetching. With the default
// geometry a remote miss costs the paper's minimum of six bus cycles —
// a 2-cycle request plus a 4-cycle response — excluding arbitration and
// memory access time.
package bus

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// TenureKind classifies a bus tenure.
type TenureKind uint8

const (
	// Request is an address/command tenure (read miss, write miss, or
	// invalidation), snooped by every node.
	Request TenureKind = iota
	// Response is a data tenure returning one cache block.
	Response
	// WriteBack is a block transfer to memory off the critical path.
	WriteBack
	numTenures
)

// NumTenureKinds is the number of distinct tenure kinds.
const NumTenureKinds = int(numTenures)

// String names the tenure kind.
func (k TenureKind) String() string {
	switch k {
	case Request:
		return "request"
	case Response:
		return "response"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("TenureKind(%d)", uint8(k))
	}
}

// Arbitration selects the bus grant policy.
type Arbitration uint8

const (
	// FCFS grants tenures in request order — a fair baseline whose
	// aggregate behaviour matches any work-conserving arbiter.
	FCFS Arbitration = iota
	// RoundRobin rotates priority among nodes, as FutureBus+-class
	// arbiters do: after each grant the served node becomes the lowest
	// priority, so no node can capture consecutive grants while others
	// wait.
	RoundRobin
)

// Config describes a split-transaction bus.
type Config struct {
	// Nodes is the number of processors on the bus.
	Nodes int
	// ClockPS is the bus cycle time; the paper evaluates 20 ns
	// (50 MHz) and 10 ns (100 MHz) buses.
	ClockPS sim.Time
	// WidthBits is the data path width; default 64.
	WidthBits int
	// BlockBytes is the cache block size; default 16.
	BlockBytes int
	// Arbiter selects the grant policy; default FCFS.
	Arbiter Arbitration
}

// DefaultClock is the 50 MHz bus of Figure 6.
const DefaultClock = 20 * sim.Nanosecond

func (c *Config) fill() {
	if c.ClockPS == 0 {
		c.ClockPS = DefaultClock
	}
	if c.WidthBits == 0 {
		c.WidthBits = 64
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 16
	}
}

// Geometry holds the derived tenure costs.
type Geometry struct {
	Config
	// RequestCycles is the address tenure length (command + address).
	RequestCycles int
	// ResponseCycles is the data tenure length: a header cycle, the
	// data transfer, and a turnaround cycle.
	ResponseCycles int
	// WriteBackCycles is a block transfer without the turnaround.
	WriteBackCycles int
}

// Validate reports a configuration error, after zero fields take their
// defaults. NewGeometry panics on the same errors; callers that take a
// configuration from outside the program check it here first.
func (c Config) Validate() error {
	c.fill()
	switch {
	case c.Nodes <= 0:
		return errors.New("bus: need at least one node")
	case c.ClockPS < 0:
		return errors.New("bus: negative clock period")
	case c.WidthBits <= 0 || c.BlockBytes <= 0 || c.BlockBytes*8%c.WidthBits != 0:
		return errors.New("bus: block size must be a whole number of bus words")
	}
	return nil
}

// NewGeometry computes tenure costs, applying defaults to zero fields.
// It panics on an invalid configuration (see Validate).
func NewGeometry(cfg Config) Geometry {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	data := cfg.BlockBytes * 8 / cfg.WidthBits
	return Geometry{
		Config:          cfg,
		RequestCycles:   2,
		ResponseCycles:  1 + data + 1,
		WriteBackCycles: 1 + data,
	}
}

// TenureTime returns the bus occupancy of a tenure kind.
func (g *Geometry) TenureTime(k TenureKind) sim.Time {
	var cy int
	switch k {
	case Request:
		cy = g.RequestCycles
	case Response:
		cy = g.ResponseCycles
	case WriteBack:
		cy = g.WriteBackCycles
	default:
		panic("bus: unknown tenure kind")
	}
	return sim.Time(cy) * g.ClockPS
}

// MissCycles returns the minimum bus cycles consumed by one remote miss
// (request + response), the paper's "minimum of six".
func (g *Geometry) MissCycles() int { return g.RequestCycles + g.ResponseCycles }

// Bus is a live split-transaction bus attached to a simulation kernel.
type Bus struct {
	Geo Geometry
	// OnTenure, when non-nil, observes every granted tenure with its
	// kind, grant time and end time — the occupancy feed for the obs
	// tracer's bus timeline. The nil default costs serve one branch.
	OnTenure func(kind TenureKind, grant, end sim.Time)

	k   *sim.Kernel
	res *sim.Resource

	tenures   [numTenures]uint64
	waitSum   sim.Time
	grants    uint64
	free      *tenure     // recycled tenure records (zero-alloc steady state)
	snoopFree *snoopSweep // recycled snoop fan-outs

	// Round-robin arbiter state.
	rrPending [][]*tenure
	rrBusy    bool
	rrLast    int
}

// Handler is the allocation-free target of TransactEvent: a pooled
// object that observes a Request tenure's snoops and the tenure's end.
type Handler interface {
	// OnEvent fires when the tenure ends.
	sim.EventHandler
	// OnVisit fires at every node other than the source as a Request
	// tenure's address is broadcast.
	OnVisit(node int, at sim.Time)
}

// New returns a bus with the given configuration attached to k.
func New(k *sim.Kernel, cfg Config) *Bus {
	g := NewGeometry(cfg)
	b := &Bus{Geo: g, k: k, res: sim.NewResource(k, "bus", 1)}
	if g.Arbiter == RoundRobin {
		b.rrPending = make([][]*tenure, g.Nodes)
		b.rrLast = g.Nodes - 1 // node 0 has first priority
	}
	return b
}

// Kernel returns the kernel the bus is attached to.
func (b *Bus) Kernel() *sim.Kernel { return b.k }

// ResetStats zeroes tenure counts, waits and utilization; subsequent
// figures cover only the window after the reset.
func (b *Bus) ResetStats() {
	b.tenures = [numTenures]uint64{}
	b.waitSum = 0
	b.grants = 0
	b.res.ResetStats()
}

// Transact arbitrates for the bus, holds it for the tenure, and then
// runs done. For Request tenures, snoop (if non-nil) fires at every
// node other than src at the grant instant — the address phase is
// broadcast. Arbitration is FIFO, a fair stand-in for the round-robin
// arbiter of real split-transaction buses.
func (b *Bus) Transact(src int, kind TenureKind, snoop func(node int, at sim.Time), done func(at sim.Time)) {
	t := b.newTenure(src, kind)
	t.snoop, t.done = snoop, done
	b.submit(t)
}

// TransactEvent is Transact for pooled handlers: a Request tenure
// snoops h at every other node, and h.OnEvent fires when the tenure
// ends. It consumes the same kernel sequence numbers as the equivalent
// Transact.
func (b *Bus) TransactEvent(src int, kind TenureKind, h Handler) {
	t := b.newTenure(src, kind)
	t.h = h
	b.submit(t)
}

// tenure is one requested bus tenure, pooled through Bus.free. It is
// the arbiter's grant target and the kernel event that ends the tenure.
type tenure struct {
	b     *Bus
	src   int
	kind  TenureKind
	snoop func(node int, at sim.Time)
	done  func(at sim.Time)
	h     Handler
	since sim.Time
	next  *tenure
}

func (b *Bus) newTenure(src int, kind TenureKind) *tenure {
	if src < 0 || src >= b.Geo.Nodes {
		panic(fmt.Sprintf("bus: bad source node %d", src))
	}
	t := b.free
	if t == nil {
		t = &tenure{b: b}
	} else {
		b.free = t.next
		t.next = nil
	}
	t.src, t.kind, t.since = src, kind, b.k.Now()
	return t
}

// submit queues t at the configured arbiter.
func (b *Bus) submit(t *tenure) {
	if b.Geo.Arbiter == RoundRobin {
		b.rrPending[t.src] = append(b.rrPending[t.src], t)
		b.rrTryGrant()
		return
	}
	b.res.AcquireEvent(t)
}

// OnGrant (sim.Granted) starts an FCFS tenure once the bus is ours.
func (t *tenure) OnGrant() {
	t.b.waitSum += t.b.k.Now() - t.since
	t.b.serve(t)
}

// OnEvent ends the tenure: the bus is released (possibly granting the
// next waiter at once), the record is recycled, and the requester's
// completion runs — in the order the per-call closures used.
func (t *tenure) OnEvent(at sim.Time) {
	b := t.b
	b.res.Release()
	rr := b.Geo.Arbiter == RoundRobin
	if rr {
		b.rrBusy = false
	}
	done, h := t.done, t.h
	t.snoop, t.done, t.h = nil, nil, nil
	t.next = b.free
	b.free = t
	switch {
	case done != nil:
		done(at)
	case h != nil:
		h.OnEvent(at)
	}
	if rr {
		b.rrTryGrant()
	}
}

// rrTryGrant grants the bus to the highest-priority pending node in the
// rotation (the node after the last one served).
func (b *Bus) rrTryGrant() {
	if b.rrBusy {
		return
	}
	n := b.Geo.Nodes
	for i := 1; i <= n; i++ {
		node := (b.rrLast + i) % n
		q := b.rrPending[node]
		if len(q) == 0 {
			continue
		}
		t := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		b.rrPending[node] = q[:len(q)-1]
		b.rrBusy = true
		b.rrLast = node
		b.waitSum += b.k.Now() - t.since
		b.res.Acquire(func() {}) // pure busy-time accounting
		b.serve(t)
		return
	}
}

// serve runs one granted tenure: snoop broadcast at grant time, then bus
// occupancy for the tenure length, ended by t's own kernel event.
func (b *Bus) serve(t *tenure) {
	grant := b.k.Now()
	b.grants++
	b.tenures[t.kind]++
	if b.OnTenure != nil {
		b.OnTenure(t.kind, grant, grant+b.Geo.TenureTime(t.kind))
	}
	if t.kind == Request && (t.snoop != nil || t.h != nil) && b.Geo.Nodes > 1 {
		// One pooled record chains through the N-1 snooping nodes in
		// index order; the reserved sequence numbers replay the exact
		// FIFO positions the per-node closures used to occupy, so the
		// dispatch order is unchanged.
		s := b.snoopFree
		if s == nil {
			s = &snoopSweep{}
		} else {
			b.snoopFree = s.next
			s.next = nil
		}
		s.b, s.snoop, s.h, s.grant, s.src, s.idx = b, t.snoop, t.h, grant, t.src, 0
		s.node = 0
		if t.src == 0 {
			s.node = 1
		}
		s.baseSeq = b.k.ReserveSeq(b.Geo.Nodes - 1)
		b.k.AtReserved(grant, s.baseSeq, s)
	}
	b.k.AfterEvent(b.Geo.TenureTime(t.kind), t)
}

// snoopSweep delivers one Request tenure's address broadcast: the same
// pooled record fires once per snooping node, re-arming itself with the
// next reserved FIFO slot until every node other than the source has
// observed the address.
type snoopSweep struct {
	b       *Bus
	snoop   func(node int, at sim.Time)
	h       Handler
	grant   sim.Time
	src     int
	node    int // next node to deliver to
	idx     int // reserved-seq offset of that delivery
	baseSeq uint64
	next    *snoopSweep
}

// OnEvent delivers the snoop to the current node and chains to the next.
// On the last delivery the record is recycled before the callback runs,
// so a snoop handler that triggers another bus transaction can reuse it.
func (s *snoopSweep) OnEvent(at sim.Time) {
	node := s.node
	nxt := node + 1
	if nxt == s.src {
		nxt++
	}
	s.idx++
	snoop, h, grant := s.snoop, s.h, s.grant
	if nxt < s.b.Geo.Nodes {
		s.node = nxt
		s.b.k.AtReserved(grant, s.baseSeq+uint64(s.idx), s)
	} else {
		b := s.b
		s.snoop, s.h = nil, nil
		s.next = b.snoopFree
		b.snoopFree = s
	}
	if h != nil {
		h.OnVisit(node, grant)
		return
	}
	snoop(node, grant)
}

// Tenures reports how many tenures of the kind completed or are in
// flight.
func (b *Bus) Tenures(kind TenureKind) uint64 { return b.tenures[kind] }

// MeanArbWait reports the average arbitration wait across all tenures.
func (b *Bus) MeanArbWait() sim.Time {
	if b.grants == 0 {
		return 0
	}
	return b.waitSum / sim.Time(b.grants)
}

// Utilization reports the time-averaged fraction of bus cycles carrying
// a tenure — the network utilization plotted for buses in Figure 6.
func (b *Bus) Utilization() float64 { return b.res.Utilization() }

// QueueLen reports the number of tenures waiting for the bus.
func (b *Bus) QueueLen() int { return b.res.QueueLen() }
