package workload

import (
	"repro/internal/coherence"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Source is a per-processor reference stream. The simulators are
// execution-driven: each processor pulls its next reference when the
// previous one completes, which is exactly the paper's blocking
// processor model.
type Source interface {
	// NumCPUs returns the number of processor streams.
	NumCPUs() int
	// Next returns cpu's next reference; ok is false when the stream
	// is exhausted.
	Next(cpu int) (r trace.Ref, ok bool)
}

// Address-space layout. All regions are disjoint; block alignment is
// the generator's BlockBytes.
const (
	ifetchBase    = 0x0000_1000_0000
	privateBase   = 0x1000_0000_0000
	readMostBase  = 0x2000_0000_0000
	migratoryBase = 0x3000_0000_0000
	wideBase      = 0x4000_0000_0000

	// privateHotBlocks is each CPU's resident private working set; it
	// fits comfortably in a 128 KB cache so steady-state private hits
	// come from here, and it is small enough that the cold-start
	// transient fits inside a simulation's warmup window. Cold
	// (missing) private references walk fresh addresses beyond it.
	privateHotBlocks = 256
	// readMostlyBlocks is the widely-shared pool; much larger than a
	// cache so revisits usually miss.
	readMostlyBlocks = 1 << 16
	// readMostlyHotBlocks is the popular subset that absorbs half the
	// read-mostly visits: blocks genuinely cached by many processors,
	// so that writes to them invalidate real sharers (the paper's
	// invalidations overwhelmingly find the block cached elsewhere —
	// Table 1's 87 % two-traversal invalidations).
	readMostlyHotBlocks = 128
	// readMostlyHotFrac is the share of read-mostly visits that go to
	// the popular subset.
	readMostlyHotFrac = 0.5
	// migratoryBlocksPerCPU sizes and staggers the migratory pool.
	// Migratory blocks model data passed from processor to processor
	// in read-modify-write bursts: each CPU sweeps the pool starting
	// migratoryBlocksPerCPU positions after its neighbour, so a block's
	// next visitor arrives while the previous writer still holds it
	// write-exclusive (the source of the paper's dirty misses and
	// sharer-carrying invalidations) yet two CPUs rarely burst the same
	// block at once.
	migratoryBlocksPerCPU = 6
	// Hot regions are laid out so that, for the default 128 KB / 16 B
	// direct-mapped cache (8192 sets), each one occupies its own set
	// range: read-mostly-hot in sets 0..127, private hot in 512..767,
	// wide cells near 896, migratory from 1024 up. Address bits above
	// bit 17 select the page (for home placement) without touching the
	// set index, so pages spread while sets stay disjoint. Without
	// this, systematic cross-region conflicts evict dirty hot blocks
	// and swamp the coherence mix with eviction artifacts that the
	// paper's multi-megabyte working sets did not have.
	migratorySetBase = 1024
	wideSetBase      = 896
	privateSetBase   = 512
	regionPageShift  = 17

	// wideBlocks models the handful of barrier/flag/global cells every
	// processor keeps cached: reads accumulate a machine-wide sharing
	// set, and the occasional write invalidates it — the events behind
	// the paper's many-sharer invalidations (Table 1's multi-traversal
	// linked-list purges).
	wideBlocks = 4
	// wideFrac is the share of shared references touching those cells.
	wideFrac = 0.06
)

// HomeHint maps generator addresses to their natural home node:
// private data and instructions live on the issuing processor's node,
// as an OS would place them; shared pages get no hint (the paper
// allocates them randomly). The second result is false when the
// address carries no placement hint.
func HomeHint(addr uint64) (cpu int, ok bool) {
	switch {
	case addr >= privateBase && addr < readMostBase:
		return int((addr - privateBase) >> 28), true
	case addr >= ifetchBase && addr < privateBase:
		return int((addr - ifetchBase) >> 20), true
	}
	return 0, false
}

// Config parameterizes a Generator.
type Config struct {
	// Profile is the benchmark description.
	Profile Profile
	// DataRefsPerCPU is the number of data references each processor
	// issues; instruction fetches are added on top per InstrPerData.
	DataRefsPerCPU int
	// BlockBytes is the cache block size used for alignment; default 16.
	BlockBytes int
	// Seed selects the deterministic random streams.
	Seed uint64
	// SharedBurstScale multiplies the shared re-reference burst length;
	// the calibration pass (core.Calibrate) sets it so the measured
	// shared miss rate matches the profile target. Default 1.
	SharedBurstScale float64
	// MissProbEstimate is the assumed probability that the first
	// reference of a shared burst misses; it seeds the burst-length
	// choice before calibration. Default 0.9.
	MissProbEstimate float64
	// Clusters partitions the processors for the hierarchical-ring
	// extension; with ClusterAffinity > 0, that fraction of migratory
	// visits stays within the issuing processor's cluster partition of
	// the pool (data passed around a working group rather than the
	// whole machine). Zero values disable clustering.
	Clusters        int
	ClusterAffinity float64
	// ContextSwitchRefs, when positive, context-switches each processor
	// every that many data references: a fresh process arrives with its
	// own private working set (initialized by stores, like any process
	// start), cooling the cache — the multitasking context the paper's
	// abstract frames the study in. Shared data is modeled as belonging
	// to the same parallel program across switches.
	ContextSwitchRefs int
}

func (c *Config) fill() {
	if c.BlockBytes == 0 {
		c.BlockBytes = 16
	}
	if c.DataRefsPerCPU == 0 {
		c.DataRefsPerCPU = 20000
	}
	if c.SharedBurstScale == 0 {
		c.SharedBurstScale = 1
	}
	if c.MissProbEstimate == 0 {
		c.MissProbEstimate = 0.9
	}
}

// Generator synthesizes per-CPU reference streams matching a Profile.
// It is deterministic for a given Config.
type Generator struct {
	cfg  Config
	cpus []*cpuState

	sharedBurst   float64 // mean refs per shared-block visit
	privateMiss   float64 // per-ref probability of a cold private block
	privWriteFrac float64 // steady-state private write prob (compensates the init sweep)
	migWriteFrac  float64 // write prob within migratory bursts
	roWriteFrac   float64 // write prob within read-mostly bursts
	migPool       int
}

// cpuState is one processor's stream state.
type cpuState struct {
	rng  *sim.Rand
	data int // data refs issued

	pendingIfetch int
	instrCarry    float64
	pc            uint64

	privHot   uint64 // rotating pointer into the hot set
	privSweep int    // completed sweeps over the hot set
	privCold  uint64 // next never-touched private block
	process   uint64 // current process (multitasking); offsets private space
	sinceCtx  int    // data refs since the last context switch

	curBlock uint64 // current shared block
	burst    int    // refs left on curBlock
	curMig   bool   // current block is migratory
	migVisit int    // migratory sweep position
	dataDue  bool   // ifetches already scheduled; next emission is the data ref
}

// NewGenerator returns a generator for the configuration.
func NewGenerator(cfg Config) *Generator {
	cfg.fill()
	p := cfg.Profile
	if p.CPUs <= 0 {
		panic("workload: profile has no CPUs")
	}
	g := &Generator{cfg: cfg}

	// Burst length so that (miss prob per visit)/(refs per visit)
	// approximates the target shared miss rate.
	target := p.SharedMissRate
	if target <= 0 {
		target = 0.001
	}
	g.sharedBurst = cfg.SharedBurstScale * cfg.MissProbEstimate / target
	if g.sharedBurst < 1 {
		g.sharedBurst = 1
	}
	g.privateMiss = p.PrivateMissRate()

	// The initialization sweep over the private hot set is all stores;
	// lower the steady-state write probability so the stream's overall
	// private write fraction still matches the Table 2 target.
	expPriv := float64(cfg.DataRefsPerCPU) * p.PrivateFrac
	g.privWriteFrac = p.PrivateWriteFrac
	if expPriv > privateHotBlocks+1 {
		g.privWriteFrac = (p.PrivateWriteFrac*expPriv - privateHotBlocks) / (expPriv - privateHotBlocks)
		if g.privWriteFrac < 0 {
			g.privWriteFrac = 0
		}
	}

	// Split the shared write fraction between the two pools: the
	// read-mostly pool gets a moderate write rate concentrated on its
	// popular subset (those writes are the wide, sharer-finding
	// invalidations), the migratory pool absorbs the rest.
	g.roWriteFrac = 0.4 * p.SharedWriteFrac
	if p.MigratoryFrac > 0 {
		g.migWriteFrac = (p.SharedWriteFrac - (1-p.MigratoryFrac)*g.roWriteFrac) / p.MigratoryFrac
		if g.migWriteFrac > 1 {
			g.migWriteFrac = 1
		}
		if g.migWriteFrac < 0 {
			g.migWriteFrac = 0
		}
	}
	g.migPool = migratoryBlocksPerCPU * p.CPUs

	root := sim.NewRand(cfg.Seed)
	g.cpus = make([]*cpuState, p.CPUs)
	for i := range g.cpus {
		g.cpus[i] = &cpuState{rng: root.Split(uint64(i))}
	}
	return g
}

// NumCPUs implements Source.
func (g *Generator) NumCPUs() int { return len(g.cpus) }

// Profile returns the generator's benchmark profile.
func (g *Generator) Profile() Profile { return g.cfg.Profile }

// SharedBurst returns the mean shared burst length in use (diagnostic
// for calibration).
func (g *Generator) SharedBurst() float64 { return g.sharedBurst }

func (g *Generator) block(base, idx uint64) uint64 {
	return base + idx*uint64(g.cfg.BlockBytes)
}

// Next implements Source.
func (g *Generator) Next(cpu int) (trace.Ref, bool) {
	s := g.cpus[cpu]
	p := g.cfg.Profile

	if s.pendingIfetch > 0 {
		s.pendingIfetch--
		s.pc = (s.pc + 4) % 4096
		addr := uint64(ifetchBase) + uint64(cpu)<<20 + s.pc
		return trace.Ref{CPU: int32(cpu), Op: coherence.Ifetch, Addr: addr}, true
	}
	if s.data >= g.cfg.DataRefsPerCPU {
		return trace.Ref{}, false
	}

	// Schedule the instruction fetches that precede the next data ref,
	// once per data reference (dataDue guards against re-adding the
	// carry after the ifetches drain).
	if !s.dataDue {
		s.instrCarry += p.InstrPerData
		if n := int(s.instrCarry); n > 0 {
			s.instrCarry -= float64(n)
			s.pendingIfetch = n
			s.dataDue = true
			return g.Next(cpu) // emit the first ifetch now
		}
	}
	s.dataDue = false

	s.data++
	if n := g.cfg.ContextSwitchRefs; n > 0 {
		s.sinceCtx++
		if s.sinceCtx >= n {
			// A new process arrives: fresh private working set, to be
			// initialized by its first sweep.
			s.sinceCtx = 0
			s.process = (s.process + 1) % 64
			s.privHot = 0
			s.privSweep = 0
			s.privCold = 0
		}
	}
	if s.rng.Bool(p.PrivateFrac) {
		return g.privateRef(cpu, s), true
	}
	return g.sharedRef(cpu, s), true
}

func (g *Generator) privateRef(cpu int, s *cpuState) trace.Ref {
	var idx uint64
	if s.rng.Bool(g.privateMiss) {
		// A cold reference: walk into fresh private blocks, which are
		// guaranteed misses (and, once the hot set wraps, realistic
		// capacity evictions).
		idx = privateHotBlocks + s.privCold
		s.privCold++
	} else {
		s.privHot = (s.privHot + 1) % privateHotBlocks
		if s.privHot == 0 {
			s.privSweep++
		}
		idx = s.privHot
	}
	// The offset keeps the private hot set in its own cache-set range
	// (see the region layout note above); each process of a
	// multitasking CPU gets a disjoint 4 MB slice of the CPU's space.
	addr := uint64(privateBase) + uint64(cpu)<<28 + s.process<<22 +
		(idx+privateSetBase)*uint64(g.cfg.BlockBytes)
	op := coherence.Load
	// The first sweep over the hot set is the program's initialization:
	// stores, which install the blocks write-exclusive up front instead
	// of trickling read-then-write upgrades through the whole run.
	if s.privSweep == 0 || s.rng.Bool(g.privWriteFrac) {
		op = coherence.Store
	}
	return trace.Ref{CPU: int32(cpu), Op: op, Addr: addr}
}

func (g *Generator) sharedRef(cpu int, s *cpuState) trace.Ref {
	p := g.cfg.Profile
	if s.burst <= 0 {
		// Start a new block visit.
		s.curMig = false
		if s.rng.Bool(wideFrac) {
			// A barrier/flag cell: usually a read burst; occasionally
			// a single write that invalidates the machine-wide
			// sharing set. The write probability scales as ~1.5/CPUs
			// so a write finds most processors caching the cell.
			j := uint64(s.rng.Intn(wideBlocks))
			s.curBlock = wideBase + j<<regionPageShift + (wideSetBase+j)*uint64(g.cfg.BlockBytes)
			if s.rng.Bool(1.5 / float64(p.CPUs)) {
				s.burst = 1
				s.burst--
				return trace.Ref{CPU: int32(cpu), Op: coherence.Store, Shared: true, Addr: s.curBlock}
			}
			s.burst = s.rng.Geometric(g.sharedBurst)
			s.burst--
			return trace.Ref{CPU: int32(cpu), Op: coherence.Load, Shared: true, Addr: s.curBlock}
		}
		s.curMig = s.rng.Bool(p.MigratoryFrac)
		if s.curMig {
			// Staggered sweep: CPU c starts migratoryBlocksPerCPU
			// positions ahead of CPU c-1 and walks forward, so each
			// block migrates around the machine writer-to-writer. With
			// cluster affinity, the sweep (usually) stays within the
			// cluster's partition of the pool, so blocks migrate
			// around a working group instead of the whole machine.
			var idx uint64
			if g.cfg.Clusters > 1 && s.rng.Bool(g.cfg.ClusterAffinity) {
				per := g.migPool / g.cfg.Clusters
				cluster := cpu / (p.CPUs / g.cfg.Clusters)
				local := (cpu*migratoryBlocksPerCPU + s.migVisit) % per
				idx = uint64(cluster*per + local)
			} else {
				idx = uint64((cpu*migratoryBlocksPerCPU + s.migVisit) % g.migPool)
			}
			s.migVisit++
			s.curBlock = migratoryBase + idx<<regionPageShift +
				(migratorySetBase+idx)*uint64(g.cfg.BlockBytes)
		} else if s.rng.Bool(readMostlyHotFrac) {
			s.curBlock = g.block(readMostBase, uint64(s.rng.Intn(readMostlyHotBlocks)))
		} else {
			s.curBlock = g.block(readMostBase, uint64(s.rng.Intn(readMostlyBlocks)))
		}
		s.burst = s.rng.Geometric(g.sharedBurst)
	}
	s.burst--
	// Writes concentrate on genuinely shared blocks: migratory blocks
	// and the popular read-mostly subset. Cold read-mostly blocks are
	// nearly read-only, so invalidations almost always find sharers.
	var wf float64
	switch {
	case s.curMig:
		wf = g.migWriteFrac
	case s.curBlock < readMostBase+readMostlyHotBlocks*uint64(g.cfg.BlockBytes):
		wf = 1.9 * g.roWriteFrac
	default:
		wf = 0.1 * g.roWriteFrac
	}
	op := coherence.Load
	if s.rng.Bool(wf) {
		op = coherence.Store
	}
	return trace.Ref{CPU: int32(cpu), Op: op, Shared: true, Addr: s.curBlock}
}

// Materialize drains a Source into an in-memory trace (used by the
// tracegen tool and the Table 2 bench).
func Materialize(name string, src Source) *trace.Trace {
	t := &trace.Trace{Name: name, Streams: make([][]trace.Ref, src.NumCPUs())}
	for cpu := 0; cpu < src.NumCPUs(); cpu++ {
		for {
			r, ok := src.Next(cpu)
			if !ok {
				break
			}
			t.Streams[cpu] = append(t.Streams[cpu], r)
		}
	}
	return t
}

// TraceSource adapts an in-memory trace to the Source interface, for
// running recorded traces through the simulators.
type TraceSource struct {
	t   *trace.Trace
	pos []int
}

// NewTraceSource returns a Source reading from t.
func NewTraceSource(t *trace.Trace) *TraceSource {
	return &TraceSource{t: t, pos: make([]int, t.NumCPUs())}
}

// NumCPUs implements Source.
func (ts *TraceSource) NumCPUs() int { return ts.t.NumCPUs() }

// Next implements Source.
func (ts *TraceSource) Next(cpu int) (trace.Ref, bool) {
	if ts.pos[cpu] >= len(ts.t.Streams[cpu]) {
		return trace.Ref{}, false
	}
	r := ts.t.Streams[cpu][ts.pos[cpu]]
	ts.pos[cpu]++
	return r, true
}
