package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// boundedMetric is a metric with the share by which it may worsen.
type boundedMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the comparison reads. Per-layer
// metrics have no bound.
type spec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

// setup_s may worsen by 10% or by 50 ms (setupFloor, in seconds),
// whichever is larger: the shortest set-ups (about 0.1 s) vary by tens
// of milliseconds from run to run. BENCHMARK.json gives setup_s a 25%
// bound instead, because on the shared 2-vCPU host the baseline was
// recorded on, the setup_s medians of two ten-run sets of the same code
// differed by up to 31%; -compare keeps the tighter rule, so there it
// reads unresolved rather than unchanged.
const (
	setupBound = 0.10
	setupFloor = 0.050
)

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// readRecords reads a result set: the JSON lines -out appends.
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// row is one workload × metric comparison.
type row struct {
	workload, metric string
	a, b             float64 // medians
	spreadA, spreadB float64 // interquartile range over median; -1 when unknown
	change           float64 // relative change of the median, signed so that > 0 is worse
	bound            float64
	verdict          string
	gated            bool
}

// compareSets applies each end-to-end metric's bound to two result
// sets, per workload, and shows beside them, ungated, the per-layer
// metrics the untraced records carry (the host timings). A metric whose
// own run-to-run spread exceeds its bound in either set cannot be
// called unchanged: it is unresolved, unless every run of B beats every
// run of A. failed_frac may not rise.
func compareSets(sp spec, a, b []result) []row {
	var rows []row
	for _, wl := range workloadNames() {
		ra, rb := byWorkload(a, wl), byWorkload(b, wl)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			rows = append(rows, compareMetric(wl, m, values(ra, m.Name), values(rb, m.Name), true))
		}
		for _, m := range sp.PerLayer {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) > 0 || len(vb) > 0 {
				rows = append(rows, compareMetric(wl, m, va, vb, false))
			}
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		r := row{workload: wl, metric: "failed_frac", a: fa, b: fb, change: fb - fa, spreadA: -1, spreadB: -1, verdict: "unchanged", gated: true}
		if fb > fa {
			r.verdict = "regressed"
		}
		rows = append(rows, r)
	}
	return rows
}

// compareMetric compares one metric's values in two sets. An ungated
// metric gets no verdict.
func compareMetric(wl string, m boundedMetric, va, vb samples, gated bool) row {
	r := row{workload: wl, metric: m.Name, spreadA: -1, spreadB: -1, gated: gated, verdict: "missing"}
	if len(va) == 0 || len(vb) == 0 {
		return r
	}
	r.a, r.b = va.median(), vb.median()
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	r.change = sign * (r.b - r.a) / math.Abs(r.a)
	sa, okA := va.spread()
	sb, okB := vb.spread()
	if okA {
		r.spreadA = sa
	}
	if okB {
		r.spreadB = sb
	}
	if !gated {
		r.verdict = "-"
		return r
	}
	r.bound = m.Bound
	if m.Name == "setup_s" {
		r.bound = max(setupBound, setupFloor/math.Abs(r.a))
	}
	switch {
	case !okA || !okB || sa > r.bound || sb > r.bound:
		r.verdict = "unresolved"
		if allBetter(va, vb, sign) {
			r.verdict = "improved"
		}
	case r.change > r.bound:
		r.verdict = "regressed"
	case r.change < -r.bound:
		r.verdict = "improved"
	default:
		r.verdict = "unchanged"
	}
	return r
}

func byWorkload(rs []result, wl string) []result {
	var out []result
	for _, r := range rs {
		if r.Workload == wl {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []result, name string) samples {
	var s samples
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			s = append(s, m.Value)
		}
	}
	return s
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b samples, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

func failedFrac(rs []result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(uint64(failed), uint64(max(attempted, 1)))
}

func pctOrDash(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}

// runCompare prints one row per workload × metric and exits non-zero
// when any gated metric regressed or is missing from a set.
func runCompare(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-15s %-24s %14s %14s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "A median", "B median", "change", "spreadA", "spreadB", "bound", "verdict")
	bad := 0
	for _, r := range compareSets(sp, a, b) {
		bound := "-"
		if r.gated {
			bound = pctOrDash(r.bound)
		}
		fmt.Fprintf(stdout, "%-15s %-24s %14.6g %14.6g %7.1f%% %8s %8s %7s  %s\n",
			r.workload, r.metric, r.a, r.b, 100*r.change, pctOrDash(r.spreadA), pctOrDash(r.spreadB), bound, r.verdict)
		if r.gated && (r.verdict == "regressed" || r.verdict == "missing") {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d metric(s) regressed or missing\n", bad)
		return 1
	}
	return 0
}
