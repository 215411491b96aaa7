// Package experiments contains one driver per table and figure of the
// paper's evaluation (Tables 1–4, Figures 3–6), plus the ablations
// DESIGN.md calls out. Each driver follows the paper's hybrid
// methodology: detailed simulations calibrate per-benchmark event
// mixes, and the analytical models sweep the design space to produce
// the actual rows and curves. Results come back as stats.Table /
// stats.Figure values that render the same rows and series the paper
// prints.
//
// The calibration simulations — the expensive part — are scheduled
// through the internal/sweep orchestration engine: drivers prefetch
// the simulation points they need, the engine fans them out over a
// worker pool, and every point is memoized by its job content hash so
// drivers sharing a configuration (e.g. Figure 3 and Figure 5) pay for
// it once, even across overlapping figure sets.
package experiments

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Options scales the experiment suite.
type Options struct {
	// Context cancels in-flight prefetch sweeps (e.g. on SIGINT); nil
	// means context.Background(). Cancellation abandons undispatched
	// simulation points; in-progress ones finish into the cache, and
	// the serial fallback path still computes whatever a driver needs.
	Context context.Context
	// DataRefsPerCPU is the calibration-simulation length; larger is
	// slower but steadier. Default 2000.
	DataRefsPerCPU int
	// Seed drives workload generation and home placement.
	Seed uint64
	// CalibrationIters bounds the burst-fitting loop (default 2; 0
	// uses the default).
	CalibrationIters int
	// Workers sizes the sweep engine's worker pool (default
	// runtime.NumCPU()).
	Workers int
	// CacheDir, when set, persists simulation results to a
	// content-addressed on-disk cache shared across processes.
	CacheDir string
	// OnEvent streams sweep progress events (job start/done/hit).
	OnEvent func(sweep.Event)
}

func (o *Options) fill() {
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.DataRefsPerCPU == 0 {
		o.DataRefsPerCPU = 2000
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
	if o.CalibrationIters == 0 {
		o.CalibrationIters = 2
	}
}

// warmupRefs is the per-processor cold-start window excluded from every
// measurement: enough to fill the private hot set and heat the
// migratory pool.
const warmupRefs = 600

// kindCalibrated tags sweep jobs that run over the runner's fitted
// workload rather than the raw Table 2 profile.
const kindCalibrated = "calibrated"

// Runner schedules the experiment simulations through the sweep
// engine. Calibration runs sharing a configuration (e.g. Figure 3 and
// Figure 5) are computed once and memoized; independent points fan out
// over the engine's worker pool. Runner is safe for concurrent use.
type Runner struct {
	opts Options
	eng  *sweep.Engine

	mu   sync.Mutex
	fits map[fitKey]*fitSlot
}

type fitKey struct {
	bench string
	cpus  int
}

// fitSlot computes one benchmark's workload fit exactly once, even
// under concurrent demand from several sweep workers.
type fitSlot struct {
	once   sync.Once
	cfg    workload.Config
	warmup int
}

// NewRunner returns an experiment runner.
func NewRunner(opts Options) *Runner {
	opts.fill()
	r := &Runner{
		opts: opts,
		fits: make(map[fitKey]*fitSlot),
	}
	r.eng = sweep.New(sweep.Options{
		Workers:  opts.Workers,
		CacheDir: opts.CacheDir,
		OnEvent:  opts.OnEvent,
		Executors: map[string]sweep.Executor{
			kindCalibrated: r.runCalibrated,
		},
	})
	return r
}

// SweepStats reports the orchestration engine's counters: jobs run,
// cache hits, per-job wall clock and aggregate simulation throughput.
func (r *Runner) SweepStats() sweep.Stats { return r.eng.Stats() }

// workloadFor returns the calibrated generator configuration for a
// benchmark, fitting the shared-burst scale on first use (against the
// directory engine, whose miss accounting is the richest). Concurrent
// callers for the same benchmark share one fit.
func (r *Runner) workloadFor(bench string, cpus int) (workload.Config, int) {
	k := fitKey{bench, cpus}
	r.mu.Lock()
	s, ok := r.fits[k]
	if !ok {
		s = &fitSlot{}
		r.fits[k] = s
	}
	r.mu.Unlock()
	s.once.Do(func() {
		prof := workload.MustProfile(bench, cpus)
		// Low-miss-rate benchmarks (WATER especially) need longer streams
		// for a statistically meaningful sample of coherence events: aim
		// for at least ~40 shared misses per processor.
		refs := r.opts.DataRefsPerCPU
		if need := int(40 / (prof.SharedMissRate * (1 - prof.PrivateFrac))); need > refs {
			refs = need
		}
		if refs > 20*r.opts.DataRefsPerCPU {
			refs = 20 * r.opts.DataRefsPerCPU
		}
		// Long-burst benchmarks also take longer to reach a steady sharing
		// pattern, so the warmup window scales with the stream.
		warmup := warmupRefs
		if refs/4 > warmup {
			warmup = refs / 4
		}
		wcfg := workload.Config{
			Profile:        prof,
			DataRefsPerCPU: refs + warmup,
			Seed:           r.opts.Seed,
		}
		fitted, _ := core.CalibrateWorkload(
			r.sysCfg(core.Config{WarmupDataRefs: warmup, Protocol: core.DirectoryRing}),
			wcfg, r.opts.CalibrationIters)
		s.cfg, s.warmup = fitted, warmup
	})
	return s.cfg, s.warmup
}

// sysCfg applies the runner's seed and warmup window to a system
// configuration.
func (r *Runner) sysCfg(cfg core.Config) core.Config {
	if cfg.Seed == 0 {
		cfg.Seed = r.opts.Seed
	}
	if cfg.WarmupDataRefs == 0 {
		cfg.WarmupDataRefs = warmupRefs
	}
	return cfg
}

// runCalibrated is the sweep executor for experiment jobs: it rebuilds
// the system configuration the job encodes and runs it over the fitted
// workload. It is a pure function of the job given fixed runner
// options (which the job's hash covers), as the engine's memoization
// requires.
func (r *Runner) runCalibrated(j sweep.Job) (*core.Metrics, error) {
	cfg, err := j.SystemConfig()
	if err != nil {
		return nil, err
	}
	wcfg, warmup := r.workloadFor(j.Benchmark, j.CPUs)
	if cfg.WarmupDataRefs == 0 {
		cfg.WarmupDataRefs = warmup
	}
	gen := workload.NewGenerator(wcfg)
	return core.NewSystem(r.sysCfg(cfg), gen).Run(), nil
}

// calJob builds the sweep job for one calibration simulation at the
// paper's 50 MIPS calibration point.
func (r *Runner) calJob(proto core.Protocol, bench string, cpus int) sweep.Job {
	return sweep.Job{
		Kind:             kindCalibrated,
		Protocol:         proto.String(),
		Benchmark:        bench,
		CPUs:             cpus,
		DataRefsPerCPU:   r.opts.DataRefsPerCPU,
		CalibrationIters: r.opts.CalibrationIters,
		Seed:             r.opts.Seed,
	}
}

// jobForConfig encodes an arbitrary system configuration as a sweep
// job, reporting ok=false when the configuration uses a knob the job
// model does not carry (the caller then simulates directly, uncached).
// The round-trip check makes the encoding self-verifying: a job is
// only used if decoding it reproduces the configuration exactly.
func (r *Runner) jobForConfig(cfg core.Config, bench string, cpus int) (sweep.Job, bool) {
	j := sweep.Job{
		Kind:                 kindCalibrated,
		Protocol:             cfg.Protocol.String(),
		Benchmark:            bench,
		CPUs:                 cpus,
		ProcCyclePS:          int64(cfg.ProcCycle),
		RingClockPS:          int64(cfg.Ring.ClockPS),
		RingWidthBits:        cfg.Ring.WidthBits,
		RingBlockBytes:       cfg.Ring.BlockBytes,
		RingProbePairs:       cfg.Ring.ProbePairsPerBlockSlot,
		RingNoStarvationRule: cfg.Ring.DisableStarvationRule,
		BusClockPS:           int64(cfg.Bus.ClockPS),
		CacheBytes:           cfg.Cache.SizeBytes,
		CacheBlockBytes:      cfg.Cache.BlockBytes,
		PageBytes:            cfg.PageBytes,
		Clusters:             cfg.Clusters,
		NonBlockingStores:    cfg.NonBlockingStores,
		WriteBufferDepth:     cfg.WriteBufferDepth,
		WarmupDataRefs:       cfg.WarmupDataRefs,
		DataRefsPerCPU:       r.opts.DataRefsPerCPU,
		CalibrationIters:     r.opts.CalibrationIters,
		Seed:                 cfg.Seed,
	}
	back, err := j.SystemConfig()
	if err != nil || !reflect.DeepEqual(back, cfg) {
		return sweep.Job{}, false
	}
	return j, true
}

// Simulate runs (or returns the cached) calibration simulation of one
// benchmark under one protocol at 50 MIPS — the paper's calibration
// point — and returns the extracted model inputs plus the raw metrics.
func (r *Runner) Simulate(proto core.Protocol, bench string, cpus int) (analytic.Calibration, *core.Metrics) {
	res, err := r.eng.RunOne(r.calJob(proto, bench, cpus))
	if err != nil {
		panic(fmt.Sprintf("experiments: calibration %v/%s/%d: %v", proto, bench, cpus, err))
	}
	m := res.Metrics()
	return analytic.FromMetrics(m, cpus), m
}

// SimulateAt runs (or recalls) a simulation at an arbitrary processor
// cycle and system configuration — used by the validation experiment
// and the ablations. Results are memoized by job content through the
// sweep engine when the configuration is expressible as a job;
// anything richer falls back to a direct, uncached run.
func (r *Runner) SimulateAt(cfg core.Config, bench string, cpus int) *core.Metrics {
	if cfg.Seed == 0 {
		cfg.Seed = r.opts.Seed
	}
	if job, ok := r.jobForConfig(cfg, bench, cpus); ok {
		if res, err := r.eng.RunOne(job); err == nil {
			return res.Metrics()
		}
	}
	wcfg, warmup := r.workloadFor(bench, cpus)
	gen := workload.NewGenerator(wcfg)
	if cfg.WarmupDataRefs == 0 {
		cfg.WarmupDataRefs = warmup
	}
	return core.NewSystem(r.sysCfg(cfg), gen).Run()
}

// SimPoint names one calibration simulation for prefetching.
type SimPoint struct {
	Proto core.Protocol
	Bench string
	CPUs  int
}

// Prefetch fans the named calibration simulations out over the sweep
// engine's worker pool so that subsequent Simulate calls are cache
// hits. Errors are deferred to the serial path, which reports them.
func (r *Runner) Prefetch(points ...SimPoint) {
	jobs := make([]sweep.Job, len(points))
	for i, p := range points {
		jobs[i] = r.calJob(p.Proto, p.Bench, p.CPUs)
	}
	_, _ = r.eng.Run(r.opts.Context, jobs)
}

// prefetchConfigs fans SimulateAt-style points out over the worker
// pool; configurations the job model cannot express are skipped and
// simulated serially by the caller.
func (r *Runner) prefetchConfigs(cfgs []core.Config, bench string, cpus int) {
	var jobs []sweep.Job
	for _, cfg := range cfgs {
		if cfg.Seed == 0 {
			cfg.Seed = r.opts.Seed
		}
		if job, ok := r.jobForConfig(cfg, bench, cpus); ok {
			jobs = append(jobs, job)
		}
	}
	_, _ = r.eng.Run(r.opts.Context, jobs)
}

// procCycleForMIPS converts a MIPS rating into a processor cycle time
// (one instruction per cycle): 50 MIPS → 20 ns, 400 MIPS → 2.5 ns.
func procCycleForMIPS(mips int) sim.Time {
	return sim.Time(1e6 / float64(mips)) // picoseconds
}

// splashSizes are the system sizes the SPLASH benchmarks are traced at.
var splashSizes = []int{8, 16, 32}

// benchLabel renders "MP3D 16"-style labels.
func benchLabel(bench string, cpus int) string {
	return fmt.Sprintf("%s %d", bench, cpus)
}
