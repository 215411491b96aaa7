// Package repro reproduces Barroso & Dubois, "The Performance of
// Cache-Coherent Ring-based Multiprocessors" (ISCA 1993): a complete
// simulation study of the unidirectional slotted ring as a
// cache-coherent interconnect for 8–64 processor shared-memory
// machines, comparing snooping and full-map directory protocols on the
// ring and the ring against high-end split-transaction buses.
//
// The package is a thin, stable facade over the internal simulation
// framework:
//
//   - Run simulates one complete machine (processors, caches, coherence
//     protocol, slotted ring or bus) over a synthetic benchmark workload
//     and returns its measured performance.
//   - NewSuite exposes the paper's full evaluation: every table and
//     figure (Tables 1–4, Figures 3–6), the model-vs-simulation
//     validation, and the design-choice ablations.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-reproduction comparison.
package repro

import (
	"fmt"
	"io"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Protocol selects a coherence protocol + interconnect pair.
type Protocol string

// The four machines the paper evaluates.
const (
	// SnoopRing is the paper's contribution: write-invalidate snooping
	// over the slotted ring (Section 3.1).
	SnoopRing Protocol = "snoop-ring"
	// DirectoryRing is the full-map directory protocol over the ring
	// (Section 3.2).
	DirectoryRing Protocol = "directory-ring"
	// SCIRing is the SCI-style linked-list directory over the ring
	// (Table 1's comparison point).
	SCIRing Protocol = "sci-ring"
	// SnoopBus is the split-transaction bus baseline (Section 4.3).
	SnoopBus Protocol = "snoop-bus"
	// HierRing is the hierarchical two-level ring extension (the
	// Hector/KSR1 direction of the paper's related work): clusters of
	// processors on local rings joined by a global ring.
	HierRing Protocol = "hier-ring"
)

// Protocols lists all supported protocols.
func Protocols() []Protocol {
	return []Protocol{SnoopRing, DirectoryRing, SCIRing, SnoopBus, HierRing}
}

func (p Protocol) internal() (core.Protocol, error) {
	switch p {
	case SnoopRing:
		return core.SnoopRing, nil
	case DirectoryRing:
		return core.DirectoryRing, nil
	case SCIRing:
		return core.SCIRing, nil
	case SnoopBus:
		return core.SnoopBus, nil
	case HierRing:
		return core.HierRing, nil
	default:
		return 0, fmt.Errorf("repro: unknown protocol %q", p)
	}
}

// Config describes one simulated machine + workload.
type Config struct {
	// Protocol selects the machine; default SnoopRing.
	Protocol Protocol
	// Benchmark is one of the paper's workloads: MP3D, WATER, CHOLESKY
	// (8/16/32 CPUs) or FFT, WEATHER, SIMPLE (64 CPUs). Default MP3D.
	Benchmark string
	// CPUs is the system size; it must match a Table 2 row for the
	// benchmark. Default 16.
	CPUs int
	// ProcCycleNS is the processor cycle time in nanoseconds (the
	// paper sweeps 1–20). Default 20 (50 MIPS).
	ProcCycleNS float64
	// RingMHz is the ring link clock (paper: 500 or 250). Default 500.
	RingMHz int
	// RingWidthBits is the ring data path width. Default 32.
	RingWidthBits int
	// BusMHz is the bus clock for SnoopBus (paper: 50 or 100).
	// Default 50.
	BusMHz int
	// DataRefsPerCPU scales the simulation length (data references per
	// processor, excluding warmup). Default 2000.
	DataRefsPerCPU int
	// Clusters is the cluster count for HierRing (default 4; must
	// divide CPUs evenly).
	Clusters int
	// Seed makes runs reproducible. Default 1.
	Seed uint64
	// TraceSample, when > 0, enables transaction-level tracing: every
	// measured coherence transaction feeds per-class latency
	// histograms, and every TraceSample-th one is captured as a full
	// span record (issue → probe grab → ack → data fill) in the
	// resulting Perfetto trace. Zero (the default) disables tracing
	// entirely; the simulated results are identical either way.
	TraceSample int
}

func (c *Config) fill() error {
	if c.Protocol == "" {
		c.Protocol = SnoopRing
	}
	if c.Benchmark == "" {
		c.Benchmark = "MP3D"
	}
	if c.CPUs == 0 {
		c.CPUs = 16
	}
	if c.ProcCycleNS == 0 {
		c.ProcCycleNS = 20
	}
	if c.RingMHz == 0 {
		c.RingMHz = 500
	}
	if c.RingWidthBits == 0 {
		c.RingWidthBits = 32
	}
	if c.BusMHz == 0 {
		c.BusMHz = 50
	}
	if c.DataRefsPerCPU == 0 {
		c.DataRefsPerCPU = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DataRefsPerCPU < 0 {
		return fmt.Errorf("repro: negative stream length %d data references per CPU", c.DataRefsPerCPU)
	}
	if c.ProcCycleNS < 0.1 || c.ProcCycleNS > 1000 {
		return fmt.Errorf("repro: processor cycle %.2f ns out of range", c.ProcCycleNS)
	}
	if _, ok := workload.ProfileFor(c.Benchmark, c.CPUs); !ok {
		return fmt.Errorf("repro: no workload profile %s/%d (see repro.Benchmarks)", c.Benchmark, c.CPUs)
	}
	return nil
}

// Benchmark identifies one workload profile.
type Benchmark struct {
	Name string
	CPUs int
}

// Benchmarks lists every workload profile (Table 2).
func Benchmarks() []Benchmark {
	var out []Benchmark
	for _, p := range workload.Profiles() {
		out = append(out, Benchmark{Name: p.Name, CPUs: p.CPUs})
	}
	return out
}

// Result is the distilled outcome of one simulation, the quantities the
// paper plots.
type Result struct {
	// ProcUtil is the average processor utilization in [0,1].
	ProcUtil float64
	// NetworkUtil is the ring slot (or bus) utilization in [0,1].
	NetworkUtil float64
	// MissLatencyNS is the mean blocking miss latency.
	MissLatencyNS float64
	// InvLatencyNS is the mean invalidation latency.
	InvLatencyNS float64
	// ExecTimeUS is the simulated execution time in microseconds.
	ExecTimeUS float64
	// SharedMissRate is the measured shared-data miss rate.
	SharedMissRate float64
	// TotalMissRate is the measured overall data miss rate.
	TotalMissRate float64
	// Misses and Upgrades count coherence transactions.
	Misses, Upgrades uint64

	// tr is the run's transaction tracer when Config.TraceSample
	// enabled it (see HasTrace / WriteTrace / SpanClasses).
	tr *obs.Tracer
}

// HasTrace reports whether the run captured a transaction trace.
func (r *Result) HasTrace() bool { return r.tr != nil }

// WriteTrace writes the run's trace in the Chrome trace-event JSON
// format, loadable at ui.perfetto.dev: one row per processor with its
// sampled transaction spans, plus counter tracks for ring-slot (or
// bus) occupancy. It fails if the run was not traced.
func (r *Result) WriteTrace(w io.Writer) error {
	if r.tr == nil {
		return fmt.Errorf("repro: run was not traced (set Config.TraceSample)")
	}
	return r.tr.WriteTrace(w)
}

// SpanClass summarizes one traced transaction class.
type SpanClass struct {
	// Class is the transaction name (read-miss-clean, write-back, …).
	Class string
	// Spans is how many transactions of the class the measured window
	// completed — every one, not just the sampled ones.
	Spans uint64
	// MeanNS / P50NS / P95NS summarize the class's latency in
	// nanoseconds.
	MeanNS, P50NS, P95NS float64
}

// SpanClasses summarizes the traced transaction classes in protocol
// order, or nil if the run was not traced. The means agree exactly
// with the run's aggregate latencies: the histograms observe every
// measured transaction, and sampling only limits which spans carry
// full phase records.
func (r *Result) SpanClasses() []SpanClass {
	if r.tr == nil {
		return nil
	}
	var out []SpanClass
	for t := 0; t < coherence.NumTxn; t++ {
		txn := coherence.Txn(t)
		n := r.tr.ClassCount(txn)
		if n == 0 {
			continue
		}
		h := r.tr.ClassLatency(txn)
		out = append(out, SpanClass{
			Class:  txn.String(),
			Spans:  n,
			MeanNS: h.Mean(),
			P50NS:  h.Quantile(0.50),
			P95NS:  h.Quantile(0.95),
		})
	}
	return out
}

// String summarizes the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("Uproc=%.1f%% Unet=%.1f%% missLat=%.0fns invLat=%.0fns exec=%.1fus",
		100*r.ProcUtil, 100*r.NetworkUtil, r.MissLatencyNS, r.InvLatencyNS, r.ExecTimeUS)
}

// systemConfig translates the filled cfg into the core configuration
// of a machine with cpus processors and checks it against the
// components' own rules, so that a malformed geometry (ring width,
// clocks, cluster count) comes back as an error instead of a panic
// inside the simulator.
func (c Config) systemConfig(cpus int) (core.Config, error) {
	proto, err := c.Protocol.internal()
	if err != nil {
		return core.Config{}, err
	}
	sc := core.Config{
		Protocol:  proto,
		ProcCycle: sim.Time(c.ProcCycleNS * float64(sim.Nanosecond)),
		Ring:      ring.Config{ClockPS: sim.Time(1e6 / float64(c.RingMHz)), WidthBits: c.RingWidthBits},
		Bus:       bus.Config{ClockPS: sim.Time(1e6 / float64(c.BusMHz))},
		Clusters:  c.Clusters,
		Seed:      c.Seed,
		Trace:     obs.Config{SampleEvery: c.TraceSample},
	}
	if err := sc.Validate(cpus); err != nil {
		return core.Config{}, fmt.Errorf("repro: %w", err)
	}
	return sc, nil
}

// resultOf distills a run's metrics.
func resultOf(m *core.Metrics) *Result {
	return &Result{
		tr:             m.Trace,
		ProcUtil:       m.ProcUtil(),
		NetworkUtil:    m.NetworkUtil,
		MissLatencyNS:  m.MissLatency.Value(),
		InvLatencyNS:   m.InvLatency.Value(),
		ExecTimeUS:     m.ExecTime.Nanoseconds() / 1000,
		SharedMissRate: m.SharedMissRate(),
		TotalMissRate:  m.TotalMissRate(),
		Misses:         m.SharedMisses + m.PrivateMisses,
		Upgrades:       m.Upgrades,
	}
}

// Run simulates one machine to completion.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	sc, err := cfg.systemConfig(cfg.CPUs)
	if err != nil {
		return nil, err
	}
	const warmup = 600
	sc.WarmupDataRefs = warmup
	gen := workload.NewGenerator(workload.Config{
		Profile:        workload.MustProfile(cfg.Benchmark, cfg.CPUs),
		DataRefsPerCPU: cfg.DataRefsPerCPU + warmup,
		Seed:           cfg.Seed,
	})
	return resultOf(core.NewSystem(sc, gen).Run()), nil
}

// RunTrace simulates cfg's machine over a recorded trace file (written
// by cmd/tracegen or trace.WriteFile; .gz handled transparently)
// instead of a synthetic workload. The trace's CPU count overrides
// cfg.CPUs; cfg.Benchmark is ignored.
func RunTrace(cfg Config, path string) (*Result, error) {
	cfg.Benchmark = "MP3D" // placeholder so validation passes; unused
	cfg.CPUs = 16
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if _, err := cfg.Protocol.internal(); err != nil {
		return nil, err
	}
	tr, err := trace.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("repro: reading trace: %w", err)
	}
	if tr.NumCPUs() == 0 {
		return nil, fmt.Errorf("repro: trace %s has no processors", path)
	}
	sc, err := cfg.systemConfig(tr.NumCPUs())
	if err != nil {
		return nil, err
	}
	return resultOf(core.NewSystem(sc, workload.NewTraceSource(tr)).Run()), nil
}
