package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shape is the size of the simulations a workload runs.
type shape struct {
	bench string
	cpus  int
	refs  int // measured data references per CPU
}

func (s shape) String() string { return fmt.Sprintf("%s/%d/%d", s.bench, s.cpus, s.refs) }

// dataRefs is the data references one simulation of the shape issues,
// warm-up window included: the work the host does.
func (s shape) dataRefs() int { return s.cpus * (s.refs + warmupRefs) }

// warmupRefs is the cold-start window the sweep engine's standalone
// executor excludes from measurement. The benchmark builds the same
// machine the engine would, so a simulation here and the engine's
// result for the same job are byte-identical (bench_test checks it).
const warmupRefs = 600

// machine is one of the six machines a round simulates.
type machine struct {
	name     string // metric-name suffix
	protocol string
	nbs      bool // weak-ordering write buffer (non-blocking stores)
}

var machines = [...]machine{
	{"snoop-ring", "snoop-ring", false},
	{"directory-ring", "directory-ring", false},
	{"sci-ring", "sci-ring", false},
	{"snoop-bus", "snoop-bus", false},
	{"hier-ring", "hier-ring", false},
	{"directory-ring-wb", "directory-ring", true},
}

func (s shape) job(m machine, seed uint64) sweep.Job {
	return sweep.Job{
		Protocol: m.protocol, Benchmark: s.bench, CPUs: s.cpus,
		DataRefsPerCPU: s.refs, Seed: seed, NonBlockingStores: m.nbs,
	}.Normalize()
}

// generatorConfig is the workload configuration the engine's standalone
// executor derives for a job.
func generatorConfig(j sweep.Job) (workload.Config, error) {
	prof, ok := workload.ProfileFor(j.Benchmark, j.CPUs)
	if !ok {
		return workload.Config{}, fmt.Errorf("no workload profile %s/%d", j.Benchmark, j.CPUs)
	}
	return workload.Config{Profile: prof, DataRefsPerCPU: j.DataRefsPerCPU + warmupRefs, Seed: j.RNGSeed()}, nil
}

// build assembles the job's machine the way the engine's standalone
// executor does: sweep.Job.SystemConfig, workload.NewGenerator and
// core.NewSystem. wrap, when set, interposes on the reference stream.
// It returns the time spent in core.NewSystem.
func build(j sweep.Job, wrap func(workload.Source) workload.Source) (*core.System, time.Duration, error) {
	wcfg, err := generatorConfig(j)
	if err != nil {
		return nil, 0, err
	}
	cfg, err := j.SystemConfig()
	if err != nil {
		return nil, 0, err
	}
	cfg.Seed = wcfg.Seed
	cfg.WarmupDataRefs = warmupRefs
	var src workload.Source = workload.NewGenerator(wcfg)
	if wrap != nil {
		src = wrap(src)
	}
	start := time.Now()
	sys := core.NewSystem(cfg, src)
	return sys, time.Since(start), nil
}

// digest is the sha256 of a run's MetricsSnapshot JSON: the simulated
// machine's complete results.
func digest(m *core.Metrics) string {
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		panic(fmt.Sprintf("bench: marshal snapshot: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// detach returns a copy of a run's metrics. System.Run returns a pointer
// into the System, so holding on to it keeps the whole simulated machine
// (caches, directories, event kernel) alive: megabytes per run, which a
// window of rounds would accumulate into gigabytes.
func detach(m *core.Metrics) *core.Metrics {
	cp := *m
	return &cp
}

// roundResult is one round: the six machines simulated one at a time.
type roundResult struct {
	wall      time.Duration
	newSystem [len(machines)]time.Duration
	run       [len(machines)]time.Duration
	metrics   [len(machines)]*core.Metrics
	digests   [len(machines)]string
}

// simRound simulates the six machines at the shape, one after another.
// Only building and running are timed; digests are taken afterwards.
func simRound(s shape, seed uint64) (roundResult, error) {
	var r roundResult
	start := time.Now()
	for i, m := range machines {
		sys, d, err := build(s.job(m, seed), nil)
		if err != nil {
			return r, err
		}
		t0 := time.Now()
		m := sys.Run()
		r.run[i] = time.Since(t0)
		r.metrics[i] = detach(m)
		r.newSystem[i] = d
	}
	r.wall = time.Since(start)
	for i, m := range r.metrics {
		r.digests[i] = digest(m)
	}
	return r, nil
}

// machineCounts is what the counting wrappers saw during one run. Every
// count spans the whole run, warm-up included.
type machineCounts struct {
	nexts, dataRefs uint64 // workload.Source.Next calls, and those that were data references
	events          uint64 // sim.Kernel.Fired
	txns            uint64 // misses + upgrades + write-backs, from the engine's caches
	mallocs         uint64 // heap objects allocated during System.Run
	msgs            [ring.NumSlotClasses]uint64
	tenures         [bus.NumTenureKinds]uint64
	ring, bus       bool // which interconnect the machine has
}

// countingSource counts the references a simulation pulls.
type countingSource struct {
	src         workload.Source
	nexts, data uint64
}

func (c *countingSource) NumCPUs() int { return c.src.NumCPUs() }

func (c *countingSource) Next(cpu int) (trace.Ref, bool) {
	r, ok := c.src.Next(cpu)
	if ok {
		c.nexts++
		if r.Op != coherence.Ifetch {
			c.data++
		}
	}
	return r, ok
}

// countedRound re-runs the six machines with counting wrappers: a
// Source wrapper, Ring.OnMessage and Bus.OnTenure (which core leaves
// nil when tracing is off). Inside System.Run the wrappers only count;
// unit costs come from the standalone replays, because timing every
// call would distort what is being attributed.
func countedRound(s shape, seed uint64, log *spanLog, wl string) (roundResult, [len(machines)]machineCounts, error) {
	var r roundResult
	var counts [len(machines)]machineCounts
	sp := log.begin(wl, "", "counted round", 0)
	start := time.Now()
	for i, m := range machines {
		c := &counts[i]
		msp := log.begin(wl, sp.id(), "machine "+m.name, 0)
		var cs *countingSource
		nsp := log.begin(wl, msp.id(), "core.NewSystem", 0)
		sys, d, err := build(s.job(m, seed), func(src workload.Source) workload.Source {
			cs = &countingSource{src: src}
			return cs
		})
		nsp.end()
		if err != nil {
			return r, counts, err
		}
		onMsg := func(class ring.SlotClass, grab, removal sim.Time) { c.msgs[class]++ }
		switch {
		case sys.Ring() != nil:
			sys.Ring().OnMessage = onMsg
			c.ring = true
		case sys.Bus() != nil:
			sys.Bus().OnTenure = func(kind bus.TenureKind, grant, end sim.Time) { c.tenures[kind]++ }
			c.bus = true
		default:
			if he, ok := sys.EngineImpl().(*hier.Engine); ok {
				he.GlobalRing().OnMessage = onMsg
				for cl := 0; cl < he.Clusters(); cl++ {
					he.LocalRing(cl).OnMessage = onMsg
				}
				c.ring = true
			}
		}
		rsp := log.begin(wl, msp.id(), "core.System.Run", 0)
		before := readRuntime()
		t0 := time.Now()
		m := sys.Run()
		r.run[i] = time.Since(t0)
		c.mallocs = readRuntime().allocObjects - before.allocObjects
		r.metrics[i] = detach(m)
		rsp.end()
		msp.end()
		r.newSystem[i] = d
		c.nexts, c.dataRefs = cs.nexts, cs.data
		c.events = sys.Kernel().Fired()
		c.txns = wholeRunTxns(sys, s.cpus)
	}
	r.wall = time.Since(start)
	sp.end()
	for i, m := range r.metrics {
		r.digests[i] = digest(m)
	}
	return r, counts, nil
}

// wholeRunTxns counts coherence transactions over the whole run,
// warm-up included (Metrics counts only the measured window): every
// engine looks each access up in the node's cache exactly once, so
// accesses that did not hit are the misses and upgrades, and the
// engines count write-backs per node.
func wholeRunTxns(sys *core.System, cpus int) uint64 {
	e, ok := sys.EngineImpl().(interface {
		Cache(node int) *cache.Cache
		WriteBacksOf(node int) uint64
	})
	if !ok {
		return 0
	}
	var n uint64
	for node := 0; node < cpus; node++ {
		c := e.Cache(node)
		n += c.Accesses - c.Hits + e.WriteBacksOf(node)
	}
	return n
}

// probeRounds is how many untraced rounds the layer probe times when a
// workload's own window ran no six-machine rounds.
const probeRounds = 3

// checkRound compares a round's digests with the reference round's; a
// differing machine is a failed simulation.
func (res *result) checkRound(r, ref roundResult, what string) {
	res.Attempted += len(machines)
	for i, m := range machines {
		if r.digests[i] != ref.digests[i] {
			res.fail("%s %s: digest %s differs from the reference %s", what, m.name, r.digests[i][:12], ref.digests[i][:12])
		}
	}
}

// countedLayers runs the counted round, checks that counting changed no
// simulated result, and sets the six-machine per-layer metrics.
func countedLayers(res *result, c config, s shape, rounds []roundResult) (roundResult, error) {
	counted, counts, err := countedRound(s, c.seed, c.spans, res.Workload)
	if err != nil {
		return counted, err
	}
	res.checkRound(counted, rounds[0], "counted round")
	return counted, simLayers(res, s, c.seed, rounds, counted, counts, c.replays)
}

// probeLayers measures the six machines at shape s for a workload that
// does not run them itself, so every traced run reports the same
// per-layer set, sim_refs_per_s included.
func probeLayers(res *result, c config, s shape) error {
	var rounds []roundResult
	for i := 0; i < probeRounds; i++ {
		r, err := simRound(s, c.seed)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		res.checkRound(r, rounds[0], "probe round")
	}
	refsPerSecond(res.setLayer, s, rounds)
	_, err := countedLayers(res, c, s, rounds)
	return err
}

// runSim is the sim_* workloads: rounds of the six machines at one
// shape, one simulation at a time. Every round simulates the same six
// jobs, so every round must produce the same digests.
func runSim(c config, name string, s shape) (*result, error) {
	res := newResult(name, c)
	var ref roundResult
	setup := func() (struct{}, error) {
		r, err := simRound(s, c.seed)
		if err != nil {
			return struct{}{}, err
		}
		if ref.wall == 0 {
			ref = r
		} else {
			res.checkRound(r, ref, "warm-up round")
		}
		return struct{}{}, nil
	}
	_, before, err := timedSetups(setupsBefore, setup, nil)
	if err != nil {
		return nil, err
	}
	for i, m := range machines {
		res.checkPinned(fmt.Sprintf("sim/%s/seed=%d/%s", s, c.seed, m.name), ref.digests[i])
	}

	var rounds []roundResult
	w := startWindow(c.window)
	for n := 0; w.more(n, 2); n++ {
		r, err := simRound(s, c.seed)
		if err != nil {
			return nil, err
		}
		res.checkRound(r, ref, "round")
		rounds = append(rounds, r)
	}
	_, rt := w.stop()
	times, err := setupsAfter(before, setup, nil)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", times.median(), "s", len(times))
	res.setAllocs(rt, len(rounds))
	res.set("sim_alloc_bytes_per_ref", float64(rt.allocBytes)/(float64(len(rounds))*s.roundRefs()), "B", len(rounds))
	medianWall := refsPerSecond(res.set, s, rounds)

	if !c.traced {
		return res, nil
	}
	res.setLayer("runtime.gc_cpu_frac", rt.gcFrac, "frac", 0)
	counted, err := countedLayers(res, c, s, rounds)
	if err != nil {
		return nil, err
	}
	res.setLayer("trace_overhead_frac", counted.wall.Seconds()/medianWall-1, "frac", 0)
	if err := suiteProbe(res, c); err != nil {
		return nil, err
	}
	return res, fleetProbe(res, c)
}

// roundRefs is the data references a round of the six machines issues.
func (s shape) roundRefs() float64 { return float64(len(machines) * s.dataRefs()) }

// refsPerSecond sets sim_refs_per_s, the data references simulated per
// host second of the median round, and returns that round's wall time
// in seconds.
func refsPerSecond(set func(string, float64, string, int), s shape, rounds []roundResult) float64 {
	var wall samples
	for _, r := range rounds {
		wall = append(wall, r.wall.Seconds())
	}
	med := wall.median()
	set("sim_refs_per_s", s.roundRefs()/med, "1/s", len(wall))
	return med
}
