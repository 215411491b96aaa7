package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Suite runs the paper's full evaluation. It caches calibration
// simulations, so regenerating several tables and figures shares work.
// The zero value is not usable; construct with NewSuite.
type Suite struct {
	r *experiments.Runner
}

// SuiteOptions scales the evaluation.
type SuiteOptions struct {
	// Context cancels in-flight calibration sweeps (e.g. on SIGINT);
	// nil means context.Background().
	Context context.Context
	// DataRefsPerCPU is the calibration-simulation length per
	// processor (default 2000). Larger values cost time and tighten
	// the statistics.
	DataRefsPerCPU int
	// Seed makes the whole suite reproducible (default fixed).
	Seed uint64
	// Workers sizes the simulation worker pool (default
	// runtime.NumCPU()). Results are identical for any worker count.
	Workers int
	// CacheDir, when set, persists simulation results to a
	// content-addressed on-disk cache, so a rerun of the suite replays
	// instead of recomputing.
	CacheDir string
}

// NewSuite returns an evaluation suite.
func NewSuite(opts SuiteOptions) *Suite {
	return &Suite{r: experiments.NewRunner(experiments.Options{
		Context:        opts.Context,
		DataRefsPerCPU: opts.DataRefsPerCPU,
		Seed:           opts.Seed,
		Workers:        opts.Workers,
		CacheDir:       opts.CacheDir,
	})}
}

// SweepStats is the suite's work accounting: how many calibration
// simulations ran, how many were served from the memoization cache,
// and the aggregate simulation throughput.
type SweepStats struct {
	// Workers is the worker-pool size.
	Workers int `json:"workers"`
	// Done counts finished jobs (including cache hits); CacheHits,
	// DiskHits, Computed and Errors partition it.
	Done      int `json:"done"`
	CacheHits int `json:"cache_hits"`
	DiskHits  int `json:"disk_hits"`
	Computed  int `json:"computed"`
	Errors    int `json:"errors"`
	// ExecWallNS is total wall clock spent computing jobs (summed
	// across workers); MeanJobWallNS is the mean per computed job.
	ExecWallNS    int64 `json:"exec_wall_ns"`
	MeanJobWallNS int64 `json:"mean_job_wall_ns"`
	// SimulatedNS is total simulated time produced; SimNSPerSec is
	// simulated nanoseconds per wall-clock second of execution.
	SimulatedNS int64   `json:"simulated_ns"`
	SimNSPerSec float64 `json:"sim_ns_per_sec"`
	// EventsFired is total kernel events dispatched by computed jobs;
	// EventsPerSec is the dispatch rate over execution wall clock.
	EventsFired  uint64  `json:"events_fired"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// SweepStats snapshots the suite's simulation-engine counters.
func (s *Suite) SweepStats() SweepStats {
	st := s.r.SweepStats()
	return SweepStats{
		Workers:       st.Workers,
		Done:          st.Done,
		CacheHits:     st.CacheHits,
		DiskHits:      st.DiskHits,
		Computed:      st.Computed,
		Errors:        st.Errors,
		ExecWallNS:    st.ExecWall.Nanoseconds(),
		MeanJobWallNS: st.MeanJobWall.Nanoseconds(),
		SimulatedNS:   st.SimulatedPS / 1000,
		SimNSPerSec:   st.SimNSPerSec,
		EventsFired:   st.EventsFired,
		EventsPerSec:  st.EventsPerSec,
	}
}

// Table1 renders the ring-traversal distribution comparison (full-map
// vs linked-list directory) for the 16-CPU SPLASH benchmarks.
func (s *Suite) Table1() string { return s.r.Table1().String() }

// Table2 renders the synthetic-workload characteristics next to the
// paper's Table 2 targets.
func (s *Suite) Table2() string { return s.r.Table2().String() }

// Table3 renders the snooping-rate geometry table.
func (s *Suite) Table3() string { return s.r.Table3().String() }

// Table4 renders the bus-clock-to-match-ring table.
func (s *Suite) Table4() string { return s.r.Table4().String() }

// Figure3 renders the three panels (processor utilization, ring
// utilization, miss latency vs processor cycle) comparing snooping and
// directory protocols for one SPLASH benchmark at 8/16/32 CPUs.
func (s *Suite) Figure3(bench string) string {
	p := s.r.Figure3(bench)
	return p.ProcUtil.String() + "\n" + p.NetUtil.String() + "\n" + p.MissLatency.String()
}

// Figure4 renders the same panels for the 64-CPU benchmarks.
func (s *Suite) Figure4() string {
	p := s.r.Figure4()
	return p.ProcUtil.String() + "\n" + p.NetUtil.String() + "\n" + p.MissLatency.String()
}

// Figure5 renders the directory-protocol miss breakdown (1-cycle clean
// / 1-cycle dirty / 2-cycle) for every benchmark and size.
func (s *Suite) Figure5() string { return s.r.Figure5().String() }

// Figure6 renders the ring-vs-bus panels for one benchmark and size.
func (s *Suite) Figure6(bench string, cpus int) string {
	p := s.r.Figure6(bench, cpus)
	return p.ProcUtil.String() + "\n" + p.NetUtil.String() + "\n" + p.MissLatency.String()
}

// Validation renders the model-vs-simulation accuracy check for one
// benchmark and size (the paper claims 15 % on latencies, 5 % on
// utilizations).
func (s *Suite) Validation(bench string, cpus int) string {
	return s.r.Validation(bench, cpus).String()
}

// AblationSlotMix renders the probe/block slot-mix ablation.
func (s *Suite) AblationSlotMix(bench string, cpus int) string {
	return s.r.AblationSlotMix(bench, cpus).String()
}

// AblationStarvationRule renders the anti-starvation rule ablation.
func (s *Suite) AblationStarvationRule(bench string, cpus int) string {
	return s.r.AblationStarvationRule(bench, cpus).String()
}

// AblationWideRing renders the 64-bit ring ablation.
func (s *Suite) AblationWideRing(bench string, cpus int) string {
	return s.r.AblationWideRing(bench, cpus).String()
}

// AblationAccessControl renders the slotted vs register-insertion vs
// token-ring comparison.
func (s *Suite) AblationAccessControl(nodes int) string {
	return experiments.AblationAccessControlTable(nodes).String()
}

// SnoopVsDirectory returns the two protocols' simulated results for one
// benchmark at the calibration point — a quick programmatic check of
// the paper's headline comparison.
func (s *Suite) SnoopVsDirectory(bench string, cpus int) (snoop, directory Result) {
	_, ms := s.r.Simulate(core.SnoopRing, bench, cpus)
	_, md := s.r.Simulate(core.DirectoryRing, bench, cpus)
	return *resultOf(ms), *resultOf(md)
}

// AblationLatencyTolerance renders the weak-ordering (non-blocking
// stores) comparison between ring and bus — the paper's Section 6
// argument made executable.
func (s *Suite) AblationLatencyTolerance(bench string, cpus int) string {
	return s.r.AblationLatencyToleranceTable(bench, cpus).String()
}

// LatencyDecomposition renders the contention-vs-pure-delay split of
// miss latency for ring and bus at one processor speed (Section 6's
// "there is latency to be tolerated despite the network being
// underutilized").
func (s *Suite) LatencyDecomposition(bench string, cpus, cycleNS int) string {
	return s.r.LatencyDecompositionTable(bench, cpus, cycleNS).String()
}

// ExtensionHierarchy renders the hierarchical-ring extension
// comparison: flat ring vs a cluster hierarchy at two workload
// localities (the Hector/KSR1 direction of the paper's related work).
func (s *Suite) ExtensionHierarchy(bench string, cpus, clusters int) string {
	return s.r.ExtensionHierarchyTable(bench, cpus, clusters).String()
}

// Figure3Plot renders Figure 3's panels as ASCII line charts.
func (s *Suite) Figure3Plot(bench string) string {
	return s.r.Figure3(bench).Plot(64, 16)
}

// Figure4Plot renders Figure 4's panels as ASCII line charts.
func (s *Suite) Figure4Plot() string {
	return s.r.Figure4().Plot(64, 16)
}

// Figure6Plot renders Figure 6's panels as ASCII line charts.
func (s *Suite) Figure6Plot(bench string, cpus int) string {
	return s.r.Figure6(bench, cpus).Plot(64, 16)
}

// AblationBlockSize renders the cache/ring block-size sweep.
func (s *Suite) AblationBlockSize(bench string, cpus int) string {
	return s.r.AblationBlockSizeTable(bench, cpus).String()
}

// AblationMultitasking renders the context-switch quantum sweep (the
// "context of multitasking" the paper's abstract frames the study in).
func (s *Suite) AblationMultitasking(bench string, cpus int) string {
	return s.r.AblationMultitaskingTable(bench, cpus).String()
}

// ExtensionHierarchyFigure renders a model-based processor-speed sweep
// comparing the flat ring against the cluster hierarchy, as ASCII
// panels.
func (s *Suite) ExtensionHierarchyFigure(bench string, cpus, clusters int) string {
	return s.r.ExtensionHierarchyFigure(bench, cpus, clusters).Plot(64, 16)
}
