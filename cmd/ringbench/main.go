// Command ringbench regenerates every table and figure of the paper's
// evaluation section — Tables 1–4, Figures 3–6 — plus the
// model-validation table and the design-choice ablations, printing the
// rows and series the paper reports. Alongside the text output it
// writes BENCH_1.json, a machine-readable record of each experiment's
// wall clock and the simulation engine's throughput, so the
// reproduction's performance trajectory is tracked run over run.
//
// Usage:
//
//	ringbench                 # everything (several minutes)
//	ringbench -only table1    # one experiment
//	ringbench -refs 4000      # longer calibration simulations
//	ringbench > bench_results.txt   # text output to the results file
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/buildinfo"
)

// benchPoint records one experiment's cost: its wall clock and the
// simulation work the engine did for it (deltas of the suite's
// counters across the experiment).
type benchPoint struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
	// SimulatedNS is the simulated time produced while this experiment
	// ran (zero when every simulation was a cache hit).
	SimulatedNS int64 `json:"simulated_ns"`
	// SimRingCyclesPerSec is the simulation throughput in 500 MHz ring
	// clock cycles (2 ns each) per wall-clock second.
	SimRingCyclesPerSec float64 `json:"sim_ring_cycles_per_sec"`
	Computed            int     `json:"computed"`
	CacheHits           int     `json:"cache_hits"`
}

// benchReport is the BENCH_1.json schema.
type benchReport struct {
	Refs        int              `json:"refs"`
	Seed        uint64           `json:"seed"`
	Workers     int              `json:"workers"`
	Points      []benchPoint     `json:"points"`
	TotalWallNS int64            `json:"total_wall_ns"`
	Sweep       repro.SweepStats `json:"sweep"`
}

func main() {
	// Ctrl-C / SIGTERM cancel the context: undispatched calibration
	// sweeps are abandoned, the current experiment finishes its
	// in-progress simulations into the cache, and the run stops at the
	// next experiment boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ringbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		refs       = fs.Int("refs", 2000, "data references per CPU in calibration simulations")
		seed       = fs.Uint64("seed", 1993, "random seed for the whole suite")
		only       = fs.String("only", "", "run a single experiment: table1..table4, figure3..figure6, validation, hierarchy, ablations")
		plot       = fs.Bool("plot", false, "render figures as ASCII line charts instead of data tables")
		workers    = fs.Int("workers", 0, "simulation worker pool size (0 = all CPUs)")
		cacheDir   = fs.String("cachedir", "", "persist simulation results to this directory")
		jsonOut    = fs.String("json", "BENCH_1.json", "write the machine-readable benchmark report here (empty to disable)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (after GC) to this file on exit")
		version    = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "ringbench %s\n", buildinfo.Read())
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "ringbench: creating cpu profile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "ringbench: starting cpu profile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "ringbench: creating mem profile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "ringbench: writing mem profile:", err)
			}
		}()
	}

	s := repro.NewSuite(repro.SuiteOptions{
		Context:        ctx,
		DataRefsPerCPU: *refs,
		Seed:           *seed,
		Workers:        *workers,
		CacheDir:       *cacheDir,
	})

	experiments := []struct {
		name string
		run  func() string
	}{
		{"table1", s.Table1},
		{"table2", s.Table2},
		{"table3", s.Table3},
		{"table4", s.Table4},
		{"figure3", func() string {
			var b strings.Builder
			for _, bench := range []string{"MP3D", "WATER", "CHOLESKY"} {
				if *plot {
					b.WriteString(s.Figure3Plot(bench))
				} else {
					b.WriteString(s.Figure3(bench))
				}
				b.WriteByte('\n')
			}
			return b.String()
		}},
		{"figure4", func() string {
			if *plot {
				return s.Figure4Plot()
			}
			return s.Figure4()
		}},
		{"figure5", s.Figure5},
		{"figure6", func() string {
			var b strings.Builder
			for _, bench := range []string{"MP3D", "WATER"} {
				for _, cpus := range []int{8, 16, 32} {
					if *plot {
						b.WriteString(s.Figure6Plot(bench, cpus))
					} else {
						b.WriteString(s.Figure6(bench, cpus))
					}
					b.WriteByte('\n')
				}
			}
			return b.String()
		}},
		{"validation", func() string {
			return s.Validation("MP3D", 8) + "\n" + s.Validation("WATER", 16)
		}},
		{"hierarchy", func() string {
			out := s.ExtensionHierarchy("FFT", 64, 8) + "\n" + s.ExtensionHierarchy("MP3D", 32, 4)
			if *plot {
				out += "\n" + s.ExtensionHierarchyFigure("FFT", 64, 8)
			}
			return out
		}},
		{"ablations", func() string {
			var b strings.Builder
			b.WriteString(s.AblationSlotMix("MP3D", 16))
			b.WriteByte('\n')
			b.WriteString(s.AblationStarvationRule("MP3D", 16))
			b.WriteByte('\n')
			b.WriteString(s.AblationWideRing("MP3D", 16))
			b.WriteByte('\n')
			b.WriteString(s.AblationMultitasking("WATER", 16))
			b.WriteByte('\n')
			b.WriteString(s.AblationBlockSize("MP3D", 16))
			b.WriteByte('\n')
			b.WriteString(s.AblationLatencyTolerance("MP3D", 16))
			b.WriteByte('\n')
			b.WriteString(s.LatencyDecomposition("MP3D", 16, 2))
			b.WriteByte('\n')
			b.WriteString(s.AblationAccessControl(8))
			return b.String()
		}},
	}

	var points []benchPoint
	var totalWall time.Duration
	matched := false
	for _, e := range experiments {
		if *only != "" && e.name != *only {
			continue
		}
		matched = true
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(stderr, "ringbench: interrupted:", err)
			return 1
		}
		before := s.SweepStats()
		start := time.Now()
		out := e.run()
		wall := time.Since(start)
		after := s.SweepStats()
		totalWall += wall

		p := benchPoint{
			Name:        e.name,
			WallNS:      wall.Nanoseconds(),
			SimulatedNS: after.SimulatedNS - before.SimulatedNS,
			Computed:    after.Computed - before.Computed,
			CacheHits:   (after.CacheHits + after.DiskHits) - (before.CacheHits + before.DiskHits),
		}
		if secs := wall.Seconds(); secs > 0 {
			p.SimRingCyclesPerSec = float64(p.SimulatedNS) / 2 / secs
		}
		points = append(points, p)

		fmt.Fprintf(stdout, "==== %s (%.1fs) ====\n%s\n", e.name, wall.Seconds(), out)
	}
	if !matched {
		fmt.Fprintf(stderr, "ringbench: unknown experiment %q\n", *only)
		return 1
	}

	if *jsonOut != "" {
		report := benchReport{
			Refs:        *refs,
			Seed:        *seed,
			Workers:     s.SweepStats().Workers,
			Points:      points,
			TotalWallNS: totalWall.Nanoseconds(),
			Sweep:       s.SweepStats(),
		}
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "ringbench: encoding report:", err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "ringbench: writing report:", err)
			return 1
		}
		fmt.Fprintf(stdout, "benchmark report written to %s\n", *jsonOut)
	}
	return 0
}
