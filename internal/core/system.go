// Package core assembles complete simulated multiprocessors: N
// single-issue processors (one instruction per cycle on hits, blocking
// on misses and invalidations, instruction fetches never missing — the
// paper's Section 4.1 processor model) driving one of the four
// coherence engines over a slotted ring or a split-transaction bus.
// Running a system produces the Metrics the paper reports — processor
// utilization, network utilization, miss latency — plus the event
// mixes its analytical models consume.
package core

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/bussnoop"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/hier"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/scilist"
	"repro/internal/sim"
	"repro/internal/snoop"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Engine is the coherence-engine interface satisfied by all five
// protocol implementations.
type Engine interface {
	Access(node int, addr uint64, write bool, done coherence.Done)
	// HasBlock reports whether node caches the block containing addr in
	// a readable state; the write-buffer model uses it for load
	// bypassing.
	HasBlock(node int, addr uint64) bool
	// WriteBacksOf returns the dirty-eviction write-backs node's own
	// evictions have caused so far; the per-processor warmup gating of
	// Metrics.WriteBacks reads it.
	WriteBacksOf(node int) uint64
	// Release hands the caches' frames and the per-block home stores to
	// the next engine once the machine has run: statistics stay
	// readable, block state is gone, and a later access panics.
	// System.Run calls it; an engine built on its own keeps its storage
	// unless asked.
	Release()
}

// Compile-time checks that every engine satisfies the interface.
var (
	_ Engine = (*snoop.Engine)(nil)
	_ Engine = (*directory.Engine)(nil)
	_ Engine = (*scilist.Engine)(nil)
	_ Engine = (*bussnoop.Engine)(nil)
	_ Engine = (*hier.Engine)(nil)
)

// Protocol selects a coherence engine + interconnect combination.
type Protocol int

const (
	// SnoopRing is the paper's snooping protocol on the slotted ring.
	SnoopRing Protocol = iota
	// DirectoryRing is the full-map directory protocol on the ring.
	DirectoryRing
	// SCIRing is the linked-list directory protocol on the ring.
	SCIRing
	// SnoopBus is the split-transaction bus baseline.
	SnoopBus
	// HierRing is the hierarchical two-level slotted ring extension
	// (Hector/KSR1 direction, Section 5 of the paper): clusters of
	// processors on local rings joined by a global ring, with
	// hierarchical snooping.
	HierRing
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case SnoopRing:
		return "snoop-ring"
	case DirectoryRing:
		return "directory-ring"
	case SCIRing:
		return "sci-ring"
	case SnoopBus:
		return "snoop-bus"
	case HierRing:
		return "hier-ring"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// DefaultProcCycle is 20 ns: the 50 MIPS processors used for the
// calibration simulations (Section 4.0).
const DefaultProcCycle = 20 * sim.Nanosecond

// Config describes a complete system.
type Config struct {
	// Protocol selects the engine + interconnect.
	Protocol Protocol
	// ProcCycle is the processor cycle time (default 20 ns = 50 MIPS).
	ProcCycle sim.Time
	// Ring configures the slotted ring for ring protocols; Nodes is
	// overridden by the workload's CPU count.
	Ring ring.Config
	// Bus configures the bus for SnoopBus; Nodes is overridden too.
	Bus bus.Config
	// Cache is the per-node cache geometry (zero: 128 KB / 16 B).
	Cache cache.Config
	// PageBytes is the home-placement granularity; default 4096.
	PageBytes int
	// Seed drives home placement.
	Seed uint64
	// WarmupDataRefs excludes each processor's first references from
	// the metrics: caches warm up, sharing patterns reach steady state,
	// and the interconnect statistics restart once every processor has
	// crossed the threshold. The paper's multi-million-reference traces
	// made cold-start negligible; short calibration runs need this
	// window. Zero measures everything.
	WarmupDataRefs int
	// Clusters is the cluster count for the HierRing protocol
	// (default 4); the node count must divide evenly.
	Clusters int
	// NonBlockingStores enables the weak-ordering latency-tolerance
	// model of the paper's conclusion (Section 6): stores retire into a
	// write buffer and the processor keeps executing; only loads and
	// buffer-full conditions block. The paper argues the slotted ring
	// can absorb the extra overlap-induced load while a near-saturated
	// bus cannot — the latency-tolerance ablation tests exactly that.
	NonBlockingStores bool
	// WriteBufferDepth bounds outstanding non-blocking stores
	// (default 8).
	WriteBufferDepth int
	// Trace enables transaction-level tracing (zero: disabled, and the
	// hot paths pay only nil-check branches). With SampleEvery = k > 0
	// every warm coherence transaction feeds the per-class latency
	// histograms and every k-th gets a full span record in the trace
	// ring buffers; ring and bus occupancy timelines are captured for
	// the whole measured window.
	Trace obs.Config
}

// Validate reports why cfg cannot build a machine of cpus processors:
// the errors on which NewSystem's components would panic. Callers that
// take a configuration from outside the program, such as a sweep job
// arriving over the wire, check it here first.
func (c Config) Validate(cpus int) error {
	if c.ProcCycle < 0 {
		return fmt.Errorf("core: negative processor cycle %v", c.ProcCycle)
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.PageBytes != 0 {
		if err := memory.ValidatePageBytes(c.PageBytes); err != nil {
			return err
		}
	}
	if c.WarmupDataRefs < 0 {
		return fmt.Errorf("core: negative warm-up window %d", c.WarmupDataRefs)
	}
	if c.WriteBufferDepth < 0 {
		return fmt.Errorf("core: negative write-buffer depth %d", c.WriteBufferDepth)
	}
	if (c.Protocol == DirectoryRing || c.Protocol == SCIRing) && cpus > memory.MaxDirectoryNodes {
		return fmt.Errorf("core: %v tracks at most %d nodes, not %d", c.Protocol, memory.MaxDirectoryNodes, cpus)
	}
	switch c.Protocol {
	case SnoopRing, DirectoryRing, SCIRing:
		rc := c.Ring
		rc.Nodes = cpus
		return rc.Validate()
	case SnoopBus:
		bc := c.Bus
		bc.Nodes = cpus
		return bc.Validate()
	case HierRing:
		return hier.Options{Clusters: c.clusters(), Ring: c.Ring}.Validate(cpus)
	}
	return fmt.Errorf("core: unknown protocol %v", c.Protocol)
}

// clusters is the hierarchical ring's cluster count, defaulted.
func (c Config) clusters() int {
	if c.Clusters == 0 {
		return 4
	}
	return c.Clusters
}

// Metrics aggregates one run's results.
type Metrics struct {
	// ExecTime is when the last processor finished its stream.
	ExecTime sim.Time
	// BusyTime sums processor compute time across CPUs.
	BusyTime sim.Time
	// StallTime sums processor blocked time across CPUs.
	StallTime sim.Time

	// Reference counts.
	InstrRefs, DataRefs, SharedRefs uint64
	Hits                            uint64
	SharedMisses, PrivateMisses     uint64
	Upgrades                        uint64
	// LocalMisses / LocalInvs are transactions satisfied without the
	// interconnect; WriteBacks are dirty-eviction block transfers.
	LocalMisses, LocalInvs uint64
	WriteBacks             uint64
	// TwoCycleMulticast is the subset of TwoCycle remote misses caused
	// by a write miss multicasting invalidations (as opposed to a
	// badly-placed dirty owner); the analytical model prices the two
	// differently.
	TwoCycleMulticast uint64

	// TxnCount tallies transactions by class.
	TxnCount [coherence.NumTxn]uint64

	// MissLatency aggregates the blocking latency of read/write misses
	// (nanoseconds); InvLatency the latency of invalidations.
	MissLatency stats.Mean
	InvLatency  stats.Mean

	// BufferedStores counts store transactions that retired through
	// the write buffer without stalling (NonBlockingStores mode);
	// BufferedLatency tracks their completion latencies.
	BufferedStores  uint64
	BufferedLatency stats.Mean

	// ClassCount tallies remote misses by directory latency class
	// (Figure 5).
	ClassCount map[coherence.MissClass]uint64

	// MissTraversals / InvTraversals are the Table 1 distributions over
	// transactions that used the ring.
	MissTraversals *stats.Distribution
	InvTraversals  *stats.Distribution

	// NetworkUtil is the ring slot (or bus) utilization at completion.
	NetworkUtil float64

	// EventsFired is the number of kernel events dispatched by the run
	// and EventSlab the kernel's event-record high-water mark — the
	// simulation engine's unit of work and allocation footprint,
	// reported for perf observability. Excluded from MetricsSnapshot:
	// they describe the simulator, not the simulated machine.
	EventsFired uint64
	EventSlab   int

	// Trace is the run's tracer when Config.Trace enabled it, nil
	// otherwise. Like EventsFired/EventSlab it is excluded from
	// MetricsSnapshot: span records are a sampled observability artifact
	// of the run, not part of the deterministic simulated-machine
	// results.
	Trace *obs.Tracer
}

// ProcUtil returns the average processor utilization: busy over
// busy+stalled (the paper's "fraction of time the processor is busy").
func (m *Metrics) ProcUtil() float64 {
	total := m.BusyTime + m.StallTime
	if total == 0 {
		return 0
	}
	return float64(m.BusyTime) / float64(total)
}

// SharedMissRate returns measured shared misses per shared reference
// (upgrades excluded, as in Table 2).
func (m *Metrics) SharedMissRate() float64 {
	if m.SharedRefs == 0 {
		return 0
	}
	return float64(m.SharedMisses) / float64(m.SharedRefs)
}

// TotalMissRate returns measured misses per data reference.
func (m *Metrics) TotalMissRate() float64 {
	if m.DataRefs == 0 {
		return 0
	}
	return float64(m.SharedMisses+m.PrivateMisses) / float64(m.DataRefs)
}

// System is a runnable simulated multiprocessor.
type System struct {
	cfg    Config
	k      *sim.Kernel
	src    workload.Source
	engine Engine
	ring   *ring.Ring
	bus    *bus.Bus
	tracer *obs.Tracer
	home   *memory.HomeMap
	procs  []*proc
	m      Metrics
	ran    bool

	// Latency aggregates accumulate in integer picoseconds and become
	// the public stats.Mean fields once, at the end of Run. Integer
	// sums are exact and independent of observation order; the result
	// artifacts are defined by this single final division.
	missAcc, invAcc, bufAcc latAcc

	finished   int
	warmed     int
	blockBytes int
}

// latAcc accumulates a latency population exactly: integer-picosecond
// sum, count, min and max. mean() converts to the reported stats.Mean
// with a single division per moment, so the result is independent of
// observation order.
type latAcc struct {
	n            uint64
	sumPS        int64
	minPS, maxPS sim.Time
}

func (a *latAcc) observe(lat sim.Time) {
	if a.n == 0 || lat < a.minPS {
		a.minPS = lat
	}
	if a.n == 0 || lat > a.maxPS {
		a.maxPS = lat
	}
	a.n++
	a.sumPS += int64(lat)
}

// mean renders the accumulator as the public nanosecond stats.Mean.
func (a *latAcc) mean() stats.Mean {
	if a.n == 0 {
		return stats.Mean{}
	}
	return stats.MeanFromMoments(a.n,
		float64(a.sumPS)/float64(sim.Nanosecond),
		a.minPS.Nanoseconds(), a.maxPS.Nanoseconds())
}

// proc is one blocking processor. It doubles as the sim.EventHandler
// for its own issue events: the blocking pipeline has at most one
// scheduled event per processor (the next data access or the stream
// end), so the pending reference lives in the proc record and the hot
// loop schedules through the kernel's zero-allocation path.
type proc struct {
	id         int
	sys        *System
	busy       sim.Time
	stall      sim.Time
	done       bool
	finish     sim.Time
	dataIssued int
	warm       bool
	// wbBase is the processor's engine write-back count at the instant
	// it warmed; the run's WriteBacks metric is the per-processor
	// post-warm sum, gated at each node's own warm instant like every
	// other per-processor aggregate and like the tracer's span counts.
	wbBase uint64
	// Pending issue event state: the data reference to access when the
	// compute cycles elapse, or eol when the stream is exhausted.
	ref   trace.Ref
	write bool
	eol   bool
	start sim.Time
	// accessDone is the engine completion callback for blocking
	// accesses, built once per proc so the steady state allocates no
	// closures.
	accessDone coherence.Done
	// Write-buffer state for the non-blocking-stores model. The buffer
	// coalesces stores to a block already being acquired, as real write
	// buffers and MSHRs do.
	pendingStores int
	pendingBlocks map[uint64]bool
	// A load merged into an outstanding buffered store (MSHR semantics)
	// resumes when that store completes. The processor is stalled
	// meanwhile, so at most one load waits: merged reports it, on
	// mergedBlock since mergedStart.
	merged      bool
	mergedBlock uint64
	mergedStart sim.Time
	draining    bool
	// storeFree recycles the records of completed buffered stores.
	storeFree []*storeOp
}

// storeOp is one buffered store in flight. done is its engine
// completion callback, bound once when the record is created, so
// buffered stores allocate nothing in the steady state.
type storeOp struct {
	p     *proc
	ref   trace.Ref
	block uint64
	start sim.Time
	done  coherence.Done
}

// newStore takes a buffered-store record from p's free list.
func (p *proc) newStore() *storeOp {
	if n := len(p.storeFree); n > 0 {
		o := p.storeFree[n-1]
		p.storeFree = p.storeFree[:n-1]
		return o
	}
	o := &storeOp{p: p}
	o.done = o.complete
	return o
}

// complete retires the buffered store: it is recorded, leaves the
// buffer, resumes a load merged into it, and lets a draining processor
// finish once the buffer is empty.
func (o *storeOp) complete(at sim.Time, res coherence.Result) {
	p, r, block, start := o.p, o.ref, o.block, o.start
	s := p.sys
	p.storeFree = append(p.storeFree, o)
	s.recordNonBlocking(p, r, at-start, res)
	p.pendingStores--
	delete(p.pendingBlocks, block)
	if p.merged && p.mergedBlock == block {
		p.merged = false
		if p.warm {
			s.m.Hits++
			p.stall += s.k.Now() - p.mergedStart
		}
		s.advance(p)
	}
	if p.draining && p.pendingStores == 0 {
		s.finishProc(p)
	}
}

// NewSystem builds a system running src under cfg. The node count comes
// from the workload.
func NewSystem(cfg Config, src workload.Source) *System {
	if cfg.ProcCycle == 0 {
		cfg.ProcCycle = DefaultProcCycle
	}
	if cfg.WriteBufferDepth == 0 {
		cfg.WriteBufferDepth = 8
	}
	n := src.NumCPUs()
	k := sim.NewKernel()
	s := &System{cfg: cfg, k: k, src: src}
	s.m.ClassCount = make(map[coherence.MissClass]uint64)
	s.m.MissTraversals = stats.NewDistribution()
	s.m.InvTraversals = stats.NewDistribution()

	// Shared pages are placed randomly across homes (the paper's OS
	// model); private data and code are homed at the issuing node.
	pageBytes := cfg.PageBytes
	if pageBytes == 0 {
		pageBytes = 4096
	}
	home := memory.NewHomeMap(n, pageBytes, sim.NewRand(cfg.Seed))
	home.SetHint(workload.HomeHint)
	s.home = home

	s.tracer = obs.New(cfg.Trace, n)

	switch cfg.Protocol {
	case SnoopRing, DirectoryRing, SCIRing:
		rc := cfg.Ring
		rc.Nodes = n
		r := ring.New(k, rc)
		s.ring = r
		switch cfg.Protocol {
		case SnoopRing:
			s.engine = snoop.New(r, snoop.Options{Cache: cfg.Cache, Home: home, Tracer: s.tracer})
		case DirectoryRing:
			s.engine = directory.New(r, directory.Options{Cache: cfg.Cache, Home: home, Tracer: s.tracer})
		case SCIRing:
			s.engine = scilist.New(r, scilist.Options{Cache: cfg.Cache, Home: home})
		}
		if s.tracer != nil {
			// One occupancy track per slot class, fed from the ring's
			// per-message observer.
			var tracks [ring.NumSlotClasses]*obs.Track
			for c := 0; c < ring.NumSlotClasses; c++ {
				cl := ring.SlotClass(c)
				tracks[c] = s.tracer.NewTrack("ring "+cl.String(), r.Geo.SlotsOfClass(cl))
			}
			r.OnMessage = func(class ring.SlotClass, grab, removal sim.Time) {
				tracks[class].Message(grab, removal)
			}
		}
	case SnoopBus:
		bc := cfg.Bus
		bc.Nodes = n
		b := bus.New(k, bc)
		s.bus = b
		s.engine = bussnoop.New(b, bussnoop.Options{Cache: cfg.Cache, Home: home})
		if s.tracer != nil {
			// One occupancy track per tenure kind; the bus is a single
			// shared resource, so each track has one "slot".
			var tracks [bus.NumTenureKinds]*obs.Track
			for kd := 0; kd < bus.NumTenureKinds; kd++ {
				tracks[kd] = s.tracer.NewTrack("bus "+bus.TenureKind(kd).String(), 1)
			}
			b.OnTenure = func(kind bus.TenureKind, grant, end sim.Time) {
				tracks[kind].Message(grant, end)
			}
		}
	case HierRing:
		s.engine = hier.New(k, n, hier.Options{
			Clusters: cfg.clusters(),
			Ring:     cfg.Ring,
			Cache:    cfg.Cache,
			Home:     home,
		})
	default:
		panic(fmt.Sprintf("core: unknown protocol %v", cfg.Protocol))
	}

	s.blockBytes = cfg.Cache.BlockBytes
	if s.blockBytes == 0 {
		s.blockBytes = cache.DefaultConfig.BlockBytes
	}
	s.procs = make([]*proc, n)
	for i := range s.procs {
		p := &proc{
			id:            i,
			sys:           s,
			warm:          cfg.WarmupDataRefs == 0,
			pendingBlocks: make(map[uint64]bool),
		}
		p.accessDone = func(at sim.Time, res coherence.Result) {
			s.record(p, p.ref, at-p.start, res)
			if !p.warm && p.dataIssued >= s.cfg.WarmupDataRefs {
				s.crossWarmup(p)
			}
			s.advance(p)
		}
		s.procs[i] = p
		if p.warm {
			s.warmed++
			s.tracer.SetWarm(p.id)
		}
	}
	return s
}

// crossWarmup marks p as measured; when the last processor warms up,
// the interconnect statistics restart so that utilization figures
// cover only the steady-state window.
func (s *System) crossWarmup(p *proc) {
	p.warm = true
	p.busy = 0
	p.stall = 0
	p.wbBase = s.engine.WriteBacksOf(p.id)
	s.warmed++
	s.tracer.SetWarm(p.id)
	if s.warmed == len(s.procs) {
		if s.ring != nil {
			s.ring.ResetStats()
		}
		if s.bus != nil {
			s.bus.ResetStats()
		}
		s.tracer.ResetNet(s.k.Now())
		if rs, ok := s.engine.(interface{ ResetNetStats() }); ok {
			rs.ResetNetStats()
		}
	}
}

// Kernel returns the simulation kernel (tests and tools).
func (s *System) Kernel() *sim.Kernel { return s.k }

// EngineImpl returns the protocol engine (tests and tools).
func (s *System) EngineImpl() Engine { return s.engine }

// Ring returns the slotted ring, or nil for bus systems.
func (s *System) Ring() *ring.Ring { return s.ring }

// Bus returns the bus, or nil for ring systems.
func (s *System) Bus() *bus.Bus { return s.bus }

// Run executes every processor's stream to completion and returns the
// metrics. The result is a copy that shares nothing with the System, so
// keeping it does not keep the simulated machine alive: its maps,
// distributions and tracer are the run's own objects, none of which
// points back into the System.
//
// A System runs once. Run then hands the machine's bulk storage (the
// caches' frames, the event calendar, the home stores and the page
// table) to the next machine built in the process; the counters of the
// kernel, the caches, the interconnect and the engine stay readable. A
// second Run panics.
func (s *System) Run() *Metrics {
	if s.ran {
		panic("core: System.Run called twice")
	}
	s.ran = true
	for _, p := range s.procs {
		s.advance(p)
	}
	s.k.Run()
	if s.finished != len(s.procs) {
		panic(fmt.Sprintf("core: %d of %d processors did not finish (deadlock?)",
			len(s.procs)-s.finished, len(s.procs)))
	}
	switch {
	case s.ring != nil:
		s.m.NetworkUtil = s.ring.OverallUtilization()
	case s.bus != nil:
		s.m.NetworkUtil = s.bus.Utilization()
	default:
		if rep, ok := s.engine.(interface{ NetworkUtilization() float64 }); ok {
			s.m.NetworkUtil = rep.NetworkUtilization()
		}
	}
	var wb uint64
	for _, p := range s.procs {
		wb += s.engine.WriteBacksOf(p.id) - p.wbBase
	}
	s.m.WriteBacks = wb
	s.m.EventsFired = s.k.Fired()
	s.m.EventSlab = s.k.SlabSize()
	s.tracer.Finish(s.k.Now())
	s.m.Trace = s.tracer
	s.m.MissLatency = s.missAcc.mean()
	s.m.InvLatency = s.invAcc.mean()
	s.m.BufferedLatency = s.bufAcc.mean()
	m := s.m
	s.engine.Release()
	s.home.Release()
	s.k.Release()
	return &m
}

// advance consumes references for p until its next data reference (or
// stream end), charging one processor cycle per reference, then issues
// the data access after those compute cycles elapse. The issue event is
// the proc itself (see OnEvent), so the per-reference loop schedules
// without allocating.
func (s *System) advance(p *proc) {
	cyc := s.cfg.ProcCycle
	var cycles sim.Time
	for {
		ref, ok := s.src.Next(p.id)
		if !ok {
			p.busy += cycles * cyc
			p.eol = true
			s.k.AfterEvent(cycles*cyc, p)
			return
		}
		cycles++
		if ref.Op == coherence.Ifetch {
			if p.warm {
				s.m.InstrRefs++
			}
			continue
		}
		// A data reference: the access issues after the accumulated
		// compute cycles.
		p.busy += cycles * cyc
		p.dataIssued++
		if p.warm {
			s.m.DataRefs++
			if ref.Shared {
				s.m.SharedRefs++
			}
		}
		p.ref = ref
		p.write = ref.Op == coherence.Store
		s.k.AfterEvent(cycles*cyc, p)
		return
	}
}

// OnEvent fires p's pending issue event: the stream-end drain, or the
// data access whose compute cycles just elapsed. Blocking accesses
// complete through p.accessDone, buffered stores through their pooled
// storeOp records.
func (p *proc) OnEvent(at sim.Time) {
	s := p.sys
	if p.eol {
		// The write buffer must drain before the processor can retire;
		// finishProc fires now or at the last store's completion.
		p.draining = true
		if p.pendingStores == 0 {
			s.finishProc(p)
		}
		return
	}
	r := p.ref
	write := p.write
	start := at
	p.start = at
	if s.cfg.NonBlockingStores {
		block := r.Addr &^ uint64(s.blockBytes-1)
		if p.pendingBlocks[block] && !write && !s.engine.HasBlock(p.id, r.Addr) {
			// The block's data is absent and already being acquired by
			// a buffered store: merge into it (MSHR semantics) rather
			// than duplicating the miss. A load during an in-flight
			// *upgrade* bypasses instead — the RS copy is readable
			// under weak ordering — and falls through to the normal
			// path, where it simply hits.
			p.merged, p.mergedBlock, p.mergedStart = true, block, start
			return
		}
	}
	if write && s.cfg.NonBlockingStores && p.pendingStores < s.cfg.WriteBufferDepth {
		// Weak ordering: the store retires into the write buffer and
		// the processor continues immediately. A store to a block
		// already being acquired coalesces into the pending entry at
		// no cost.
		block := r.Addr &^ uint64(s.blockBytes-1)
		if !p.pendingBlocks[block] {
			p.pendingStores++
			p.pendingBlocks[block] = true
			o := p.newStore()
			o.ref, o.block, o.start = r, block, start
			s.engine.Access(p.id, r.Addr, true, o.done)
		}
		if !p.warm && p.dataIssued >= s.cfg.WarmupDataRefs {
			s.crossWarmup(p)
		}
		s.advance(p)
		return
	}
	s.engine.Access(p.id, r.Addr, write, p.accessDone)
}

// finishProc retires one processor and folds its times into the run
// totals.
func (s *System) finishProc(p *proc) {
	p.done = true
	p.finish = s.k.Now()
	s.finished++
	if p.finish > s.m.ExecTime {
		s.m.ExecTime = p.finish
	}
	s.m.BusyTime += p.busy
	s.m.StallTime += p.stall
}

// recordNonBlocking folds a completed buffered store into the metrics:
// it counts as a transaction but stalls nobody.
func (s *System) recordNonBlocking(p *proc, r trace.Ref, lat sim.Time, res coherence.Result) {
	if !p.warm {
		return
	}
	if res.Hit {
		s.m.Hits++
		return
	}
	s.m.TxnCount[res.Txn]++
	s.m.BufferedStores++
	s.bufAcc.observe(lat)
	switch res.Txn {
	case coherence.Invalidation:
		s.m.Upgrades++
		if res.Local {
			s.m.LocalInvs++
		}
	default:
		if r.Shared {
			s.m.SharedMisses++
		} else {
			s.m.PrivateMisses++
		}
		if res.Local {
			s.m.LocalMisses++
		}
		if res.Class != coherence.LocalOrHit {
			s.m.ClassCount[res.Class]++
		}
	}
}

// record folds one completed access into the metrics. Accesses inside
// a processor's warmup window still stall it (p.stall is zeroed when it
// crosses the boundary) but are excluded from the aggregates.
func (s *System) record(p *proc, r trace.Ref, lat sim.Time, res coherence.Result) {
	if !p.warm {
		p.stall += lat
		return
	}
	if res.Hit {
		s.m.Hits++
		return
	}
	p.stall += lat
	s.m.TxnCount[res.Txn]++
	switch res.Txn {
	case coherence.Invalidation:
		s.m.Upgrades++
		if res.Local {
			s.m.LocalInvs++
		}
		s.invAcc.observe(lat)
		if res.Traversals > 0 {
			s.m.InvTraversals.Observe(res.Traversals)
		}
	default:
		if res.Local {
			s.m.LocalMisses++
		}
		if res.Class == coherence.TwoCycle && res.Txn == coherence.WriteMissClean {
			s.m.TwoCycleMulticast++
		}
		if r.Shared {
			s.m.SharedMisses++
		} else {
			s.m.PrivateMisses++
		}
		s.missAcc.observe(lat)
		if res.Traversals > 0 {
			s.m.MissTraversals.Observe(res.Traversals)
		}
		if res.Class != coherence.LocalOrHit {
			s.m.ClassCount[res.Class]++
		}
	}
}
