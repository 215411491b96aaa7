// Command bench is the repository's performance benchmark. It runs four
// workloads in one process — the paper-evaluation suite from a cold
// cache, single simulations at a high and a low miss rate, and the
// serving fleet — prints every end-to-end metric by name with its unit,
// and checks that the simulated outputs are correct. With -trace it
// re-runs each workload with wrappers around the layer calls it makes
// and reports per-layer costs. README.md defines the workloads and
// metrics.
//
// Build and run it from the repository root with
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1|DIR] [-quick] [-out FILE]
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (per-layer with -trace).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sizes holds every size the workloads use.
type sizes struct {
	suiteRefs   int   // calibration refs per CPU for the suite
	probeCPUs   int   // CPUs of the suite's probe machines (MP3D)
	miss, hit   shape // the sim_* workloads
	serve       shape // the fleet's jobs
	pool        int   // warmed jobs the fleet's hits draw from
	minRequests int   // per client and window
}

var (
	fullSizes = sizes{
		suiteRefs: 2000, probeCPUs: 16,
		miss: shape{"MP3D", 32, 4000}, hit: shape{"WATER", 16, 8000},
		serve: shape{"MP3D", 16, 500}, pool: 64, minRequests: 100,
	}
	// quickSizes keep the whole run to seconds, for tests.
	quickSizes = sizes{
		suiteRefs: 50, probeCPUs: 8,
		miss: shape{"MP3D", 8, 300}, hit: shape{"WATER", 8, 300},
		serve: shape{"MP3D", 8, 100}, pool: 8, minRequests: 10,
	}
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	window  time.Duration // measured window per workload
	quick   bool
	traced  bool
	sizes   sizes
	replays replaySizes
	spans   *spanLog // nil unless traced
	pinned  map[string]string
}

type workloadDef struct {
	name string
	run  func(config) (*result, error)
}

// workloads are the benchmark's workloads; BENCHMARK.json names them
// and README.md says why each was chosen.
var workloads = []workloadDef{
	{"suite_cold", runSuite},
	{"sim_miss_heavy", func(c config) (*result, error) { return runSim(c, "sim_miss_heavy", c.sizes.miss) }},
	{"sim_hit_heavy", func(c config) (*result, error) { return runSim(c, "sim_hit_heavy", c.sizes.hit) }},
	{"serve_fleet", runServe},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("workload", "", "run one workload: suite_cold, sim_miss_heavy, sim_hit_heavy or serve_fleet (default: all four)")
		seed    = fs.Uint64("seed", 1993, "seed every generated input derives from")
		seconds = fs.Float64("seconds", 20, "measured window per workload, in seconds")
		trace   = fs.String("trace", "0", "0: end-to-end metrics only; 1: also re-run traced and report per-layer metrics; DIR: as 1, and write layers.json and spans.json to DIR")
		quick   = fs.Bool("quick", false, "tiny sizes, for tests")
		out     = fs.String("out", "", "append one JSON record per workload run to this file")
		compare = fs.Bool("compare", false, "compare two result files written by -out: -compare A.jsonl B.jsonl")
		spec    = fs.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds, for -compare")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "bench: -seconds must not be negative")
		return 2
	}
	pinned, err := loadPinned()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	c := config{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)), quick: *quick,
		sizes: fullSizes, replays: fullReplays, pinned: pinned,
	}
	if *quick {
		c.sizes, c.replays = quickSizes, quickReplays
	}
	traceDir := ""
	switch *trace {
	case "0":
	case "1":
		c.traced = true
	default:
		c.traced, traceDir = true, *trace
	}
	if c.traced {
		c.spans = newSpanLog()
	}

	var selected []workloadDef
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v)\n", *only, workloadNames())
		return 2
	}

	h := readHost()
	fmt.Fprintf(stdout, "host num_cpu=%d gomaxprocs=%d go=%s commit=%s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	var results []*result
	for _, w := range selected {
		res, err := w.run(c)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.finish(c.traced)
		printResult(stdout, res)
		results = append(results, res)
	}
	if *out != "" {
		if err := appendRecords(*out, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if traceDir != "" {
		if err := writeTraceDir(traceDir, results, c.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s\n", traceDir)
	}
	line, err := json.Marshal(contract(results, c.traced))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printResult writes a workload's metrics one per line: the end-to-end
// set, the workload's host timings and failed_frac, then (traced) its
// layers.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s seed=%d window=%gs attempted=%d failed=%d correct=%t pinned_digests=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct, r.Pinned)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   failure: %s\n", f)
	}
	line := func(kind, name string, m metric) {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Fprintf(w, "%-6s %-36s %14.6g %-5s %s\n", kind, name, m.Value, m.Unit, n)
	}
	isEndToEnd := make(map[string]bool)
	for _, n := range endToEnd {
		isEndToEnd[n] = true
		line("e2e", n, r.Metrics[n])
	}
	for _, n := range sortedKeys(r.Metrics) {
		if !isEndToEnd[n] {
			line("detail", n, r.Metrics[n])
		}
	}
	for _, n := range sortedKeys(r.Layers) {
		line("layer", n, r.Layers[n])
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendRecords appends one JSON line per result to path.
func appendRecords(path string, results []*result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraceDir writes the traced run's per-layer metrics (layers.json,
// by workload) and its spans (spans.json, Chrome trace-event format).
func writeTraceDir(dir string, results []*result, spans *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var names []string
	layers := make(map[string]map[string]metric)
	for _, r := range results {
		names = append(names, r.Workload)
		layers[r.Workload] = r.Layers
	}
	b, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = errors.Join(spans.writeChrome(bw, names), bw.Flush())
	return errors.Join(err, f.Close())
}

// window measures one workload's timed window of length d.
type window struct {
	start time.Time
	d     time.Duration
	rt    runtimeCounters
}

// windowStats is what the process did during a window.
type windowStats struct {
	allocBytes uint64
	gcFrac     float64
}

func startWindow(d time.Duration) window { return window{start: time.Now(), d: d, rt: readRuntime()} }

// more reports whether to run another op: until the window has elapsed
// and at least minOps have run.
func (w window) more(done, minOps int) bool {
	return done < minOps || time.Since(w.start) < w.d
}

func (w window) stop() (time.Duration, windowStats) {
	elapsed := time.Since(w.start)
	rt := readRuntime()
	return elapsed, windowStats{allocBytes: rt.allocBytes - w.rt.allocBytes, gcFrac: gcFrac(w.rt, rt)}
}

// setupRuns is how many times a workload sets up; setup_s is the median.
// setupsBefore of them run before the window and the rest after it, so
// that the median samples the host at both ends of the run: on a shared
// host a slow spell of a second or two would otherwise catch every
// set-up at once.
const (
	setupRuns    = 9
	setupsBefore = 4
)

// timedSetups runs setup n times and keeps the last instance, tearing
// the earlier ones down. It returns the set-up times in seconds.
func timedSetups[T any](n int, setup func() (T, error), teardown func(T)) (T, samples, error) {
	var last T
	var times samples
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			if i > 0 && teardown != nil {
				teardown(last)
			}
			return last, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 && teardown != nil {
			teardown(last)
		}
		last = v
	}
	return last, times, nil
}

// setupsAfter runs the set-ups left after the window, tearing each
// down, and returns the times of all of them, those before included.
func setupsAfter[T any](before samples, setup func() (T, error), teardown func(T)) (samples, error) {
	last, after, err := timedSetups(setupRuns-len(before), setup, teardown)
	if err != nil {
		return nil, err
	}
	if teardown != nil {
		teardown(last)
	}
	return append(before, after...), nil
}
