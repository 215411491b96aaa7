// Command ringsim simulates one cache-coherent multiprocessor
// configuration — protocol, interconnect, benchmark, processor speed —
// and prints its measured performance, the quantities the paper plots:
// processor utilization, network utilization, and miss latency.
//
// Usage:
//
//	ringsim -protocol snoop-ring -bench MP3D -cpus 16 -cycle 5
//	ringsim -protocol snoop-bus  -bench WATER -cpus 32 -busmhz 100
//	ringsim -bench MP3D -cpus 16 -trace-out trace.json   # Perfetto trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/buildinfo"
	olog "repro/internal/obs/slog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ringsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protocol = fs.String("protocol", "snoop-ring", "protocol: snoop-ring | directory-ring | sci-ring | snoop-bus")
		bench    = fs.String("bench", "MP3D", "benchmark: MP3D | WATER | CHOLESKY | FFT | WEATHER | SIMPLE")
		cpus     = fs.Int("cpus", 16, "processor count (must match a Table 2 profile)")
		cycle    = fs.Float64("cycle", 20, "processor cycle time in ns (paper sweeps 1-20)")
		ringMHz  = fs.Int("ringmhz", 500, "ring link clock in MHz (paper: 250 or 500)")
		ringBits = fs.Int("ringbits", 32, "ring data path width in bits")
		busMHz   = fs.Int("busmhz", 50, "bus clock in MHz for snoop-bus (paper: 50 or 100)")
		refs     = fs.Int("refs", 5000, "data references per processor (simulation length)")
		seed     = fs.Uint64("seed", 1, "random seed")
		list     = fs.Bool("list", false, "list available benchmark profiles and exit")
		traceIn  = fs.String("trace", "", "replay a recorded trace file (from tracegen) instead of a synthetic workload")
		traceOut = fs.String("trace-out", "", "write a Perfetto/Chrome trace of coherence transactions to this file (load at ui.perfetto.dev)")
		traceSmp = fs.Int("trace-sample", 0, "record every k-th transaction as a full span (0 = 64 when -trace-out is set)")
		version  = fs.Bool("version", false, "print build version and exit")
		logLevel = fs.String("loglevel", "info", "structured JSON log level on stderr: debug | info | warn | error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "ringsim %s\n", buildinfo.Read())
		return 0
	}
	level, lerr := olog.ParseLevel(*logLevel)
	if lerr != nil {
		fmt.Fprintln(stderr, "ringsim:", lerr)
		return 2
	}
	logger := olog.New(stderr, level, "ringsim")

	if *list {
		fmt.Fprintln(stdout, "benchmark profiles (Table 2):")
		for _, b := range repro.Benchmarks() {
			fmt.Fprintf(stdout, "  %-9s %d CPUs\n", b.Name, b.CPUs)
		}
		return 0
	}

	cfg := repro.Config{
		Protocol:       repro.Protocol(*protocol),
		Benchmark:      *bench,
		CPUs:           *cpus,
		ProcCycleNS:    *cycle,
		RingMHz:        *ringMHz,
		RingWidthBits:  *ringBits,
		BusMHz:         *busMHz,
		DataRefsPerCPU: *refs,
		Seed:           *seed,
		TraceSample:    *traceSmp,
	}
	if *traceOut != "" && cfg.TraceSample == 0 {
		cfg.TraceSample = 64
	}
	if *traceOut == "" && cfg.TraceSample != 0 {
		fmt.Fprintln(stderr, "ringsim: -trace-sample requires -trace-out")
		return 2
	}
	logger.Debug("simulation start", "protocol", *protocol, "bench", *bench,
		"cpus", *cpus, "refs", *refs, "seed", *seed)
	var res *repro.Result
	var err error
	if *traceIn != "" {
		res, err = repro.RunTrace(cfg, *traceIn)
	} else {
		res, err = repro.Run(cfg)
	}
	if err != nil {
		logger.Error("simulation failed", olog.KeyError, err.Error())
		fmt.Fprintln(stderr, "ringsim:", err)
		return 1
	}

	workloadDesc := fmt.Sprintf("%s/%d CPUs", *bench, *cpus)
	if *traceIn != "" {
		workloadDesc = "trace " + *traceIn
	}
	fmt.Fprintf(stdout, "configuration: %s, %s, %.1f ns processor cycle\n",
		*protocol, workloadDesc, *cycle)
	fmt.Fprintf(stdout, "  processor utilization : %6.1f %%\n", 100*res.ProcUtil)
	fmt.Fprintf(stdout, "  network utilization   : %6.1f %%\n", 100*res.NetworkUtil)
	fmt.Fprintf(stdout, "  avg miss latency      : %6.0f ns\n", res.MissLatencyNS)
	fmt.Fprintf(stdout, "  avg inv latency       : %6.0f ns\n", res.InvLatencyNS)
	fmt.Fprintf(stdout, "  execution time        : %6.1f us\n", res.ExecTimeUS)
	fmt.Fprintf(stdout, "  shared miss rate      : %6.2f %%\n", 100*res.SharedMissRate)
	fmt.Fprintf(stdout, "  total miss rate       : %6.2f %%\n", 100*res.TotalMissRate)
	fmt.Fprintf(stdout, "  misses / upgrades     : %d / %d\n", res.Misses, res.Upgrades)

	if *traceOut != "" {
		if err := writeTrace(res, *traceOut); err != nil {
			fmt.Fprintln(stderr, "ringsim:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s (1 in %d transactions sampled); open at https://ui.perfetto.dev\n",
			*traceOut, cfg.TraceSample)
		for _, c := range res.SpanClasses() {
			fmt.Fprintf(stdout, "  %-17s %6d spans  mean %7.0f ns  p95 %7.0f ns\n",
				c.Class, c.Spans, c.MeanNS, c.P95NS)
		}
	}
	return 0
}

func writeTrace(res *repro.Result, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
