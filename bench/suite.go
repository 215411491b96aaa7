package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro"
)

// experiment is one of the paper evaluation's experiments as ringbench
// runs them (Tables 1–4, Figures 3–6, validation, hierarchy, ablations).
type experiment struct {
	name string
	run  func(*repro.Suite) string
}

func joined(parts ...string) string {
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	return b.String()
}

var experiments = []experiment{
	{"table1", (*repro.Suite).Table1},
	{"table2", (*repro.Suite).Table2},
	{"table3", (*repro.Suite).Table3},
	{"table4", (*repro.Suite).Table4},
	{"figure3", func(s *repro.Suite) string {
		return joined(s.Figure3("MP3D"), s.Figure3("WATER"), s.Figure3("CHOLESKY"))
	}},
	{"figure4", (*repro.Suite).Figure4},
	{"figure5", (*repro.Suite).Figure5},
	{"figure6", func(s *repro.Suite) string {
		var parts []string
		for _, bench := range []string{"MP3D", "WATER"} {
			for _, cpus := range []int{8, 16, 32} {
				parts = append(parts, s.Figure6(bench, cpus))
			}
		}
		return joined(parts...)
	}},
	{"validation", func(s *repro.Suite) string {
		return joined(s.Validation("MP3D", 8), s.Validation("WATER", 16))
	}},
	{"hierarchy", func(s *repro.Suite) string {
		return joined(s.ExtensionHierarchy("FFT", 64, 8), s.ExtensionHierarchy("MP3D", 32, 4))
	}},
	{"ablations", func(s *repro.Suite) string {
		return joined(
			s.AblationSlotMix("MP3D", 16), s.AblationStarvationRule("MP3D", 16),
			s.AblationWideRing("MP3D", 16), s.AblationMultitasking("WATER", 16),
			s.AblationBlockSize("MP3D", 16), s.AblationLatencyTolerance("MP3D", 16),
			s.LatencyDecomposition("MP3D", 16, 2), s.AblationAccessControl(8),
		)
	}},
}

// suiteWorkers is the suite's sweep pool size: one worker per core of
// the 2-core host the benchmark is sized for, as ringbench's default
// would pick there.
const suiteWorkers = 2

// passResult is one full evaluation pass.
type passResult struct {
	wall   time.Duration
	exp    []time.Duration // per experiment, in experiments order
	digest string          // sha256 of the pass's text output
	stats  repro.SweepStats
}

// suitePass runs every experiment on a fresh suite, so the memoization
// cache starts empty.
func suitePass(refs int, seed uint64, log *spanLog) (passResult, error) {
	var p passResult
	sp := log.begin("suite_cold", "", "pass", 0)
	defer sp.end()
	start := time.Now()
	s := repro.NewSuite(repro.SuiteOptions{DataRefsPerCPU: refs, Seed: seed, Workers: suiteWorkers})
	h := sha256.New()
	for _, e := range experiments {
		esp := log.begin("suite_cold", sp.id(), "experiments."+e.name, 0)
		t0 := time.Now()
		out := e.run(s)
		p.exp = append(p.exp, time.Since(t0))
		esp.end()
		fmt.Fprintf(h, "==== %s ====\n%s\n", e.name, out)
	}
	p.wall = time.Since(start)
	p.stats = s.SweepStats()
	if p.stats.Errors > 0 {
		return p, fmt.Errorf("suite pass: %d simulation jobs failed", p.stats.Errors)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// suiteWarmup is the suite workload's set-up: Table 1 on a throw-away
// suite, which loads the workload profiles, the pool and the
// calibration path before any pass is timed.
func suiteWarmup(refs int, seed uint64) error {
	s := repro.NewSuite(repro.SuiteOptions{DataRefsPerCPU: refs, Seed: seed, Workers: suiteWorkers})
	if s.Table1() == "" {
		return fmt.Errorf("suite warm-up: empty Table 1")
	}
	return nil
}

func runSuite(c config) (*result, error) {
	res := newResult("suite_cold", c)
	refs := c.sizes.suiteRefs
	setup := func() (struct{}, error) { return struct{}{}, suiteWarmup(refs, c.seed) }
	_, before, err := timedSetups(setupsBefore, setup, nil)
	if err != nil {
		return nil, err
	}

	var passes []passResult
	var ref, pairRef string // the digests of the first pair and of the current pair
	w := startWindow(c.window)
	for n := 0; w.more(n, 2); n++ {
		seed := passSeed(c.seed, n)
		p, err := suitePass(refs, seed, nil)
		res.Attempted++
		if n%2 == 0 {
			pairRef = ""
		}
		if err != nil {
			res.fail("%v", err)
			continue
		}
		switch {
		case pairRef == "":
			pairRef = p.digest
			res.checkPinned(suiteKey(refs, seed), p.digest)
		case p.digest != pairRef:
			res.fail("suite pass digest %s differs from its pair's %s (seed %d)", p.digest[:12], pairRef[:12], seed)
		}
		if n < 2 {
			ref = pairRef
		}
		passes = append(passes, p)
	}
	_, rt := w.stop()
	if len(passes) == 0 {
		return nil, fmt.Errorf("suite_cold: no pass completed")
	}
	times, err := setupsAfter(before, setup, nil)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", times.median(), "s", len(times))
	var wall samples
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
	}
	res.setAllocs(rt, len(passes))
	res.set("suite_wall_s", wall.median(), "s", len(wall))

	if !c.traced {
		return res, nil
	}
	res.setLayer("runtime.gc_cpu_frac", rt.gcFrac, "frac", 0)
	// The traced re-run: one pass with a span around every experiment.
	p, err := suitePass(refs, c.seed, c.spans)
	res.Attempted++
	if err != nil {
		res.fail("traced pass: %v", err)
	} else if p.digest != ref {
		res.fail("traced pass digest %s differs from the untraced passes' %s", p.digest[:12], ref[:12])
	}
	res.setLayer("trace_overhead_frac", p.wall.Seconds()/wall.median()-1, "frac", 0)
	for i, e := range experiments {
		var d samples
		for _, q := range passes {
			d = append(d, q.exp[i].Seconds())
		}
		res.setLayer("experiments."+e.name+"_s", d.median(), "s", len(d))
	}
	var busy, meanJob samples
	for _, q := range passes {
		busy = append(busy, float64(q.stats.ExecWallNS)/(float64(q.stats.Workers)*float64(q.wall)))
		meanJob = append(meanJob, float64(q.stats.MeanJobWallNS)/1e6)
	}
	last := passes[len(passes)-1].stats
	res.setLayer("sweep.pool_busy_frac", busy.median(), "frac", len(busy))
	res.setLayer("sweep.computed", float64(last.Computed), "count", 0)
	res.setLayer("sweep.cache_hits", float64(last.CacheHits), "count", 0)
	res.setLayer("sweep.mean_job_ms", meanJob.median(), "ms", len(meanJob))
	// The six machines at the suite's calibration size.
	if err := probeLayers(res, c, shape{"MP3D", c.sizes.probeCPUs, refs}); err != nil {
		return nil, err
	}
	return res, fleetProbe(res, c)
}

func suiteKey(refs int, seed uint64) string { return fmt.Sprintf("suite/refs=%d/seed=%d", refs, seed) }

// passSeed is the seed of a run's nth suite pass. Passes run in pairs,
// each pair at its own seed derived from -seed (the first at -seed
// itself), and the two passes of a pair must agree. The suite's heap
// allocation per pass varies by about 1% from seed to seed; spreading a
// run's passes over several seeds averages that out, so that
// suite_alloc_mb repeats from run to run well within its 3% bound.
func passSeed(seed uint64, n int) uint64 {
	if n < 2 {
		return seed
	}
	return derive(seed, domainSuite, uint64(n/2))
}

// suiteProbe times one suite pass for a traced workload that does not
// run the suite, so its per-layer set has suite_wall_s (from one pass).
// The pass's digest must match the pinned one at -seed 1993.
func suiteProbe(res *result, c config) error {
	p, err := suitePass(c.sizes.suiteRefs, c.seed, nil)
	res.Attempted++
	if err != nil {
		return err
	}
	res.checkPinned(suiteKey(c.sizes.suiteRefs, c.seed), p.digest)
	res.setLayer("suite_wall_s", p.wall.Seconds(), "s", 1)
	return nil
}
