package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from full-size and quick runs at -seed 1993")

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return strings.Join(a, ",") == strings.Join(b, ",")
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, or the contract line would drift from the definition.
func TestSpecMatchesProgram(t *testing.T) {
	s := readBenchSpec(t)
	var wl []string
	for _, w := range s.Workloads {
		wl = append(wl, w.Name)
	}
	if !sameSet(wl, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wl, workloadNames())
	}
	if !sameSet(names(s.EndToEnd), endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", names(s.EndToEnd), endToEnd)
	}
	if !sameSet(names(s.PerLayer), perLayerNames()) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", names(s.PerLayer), perLayerNames())
	}
}

func lastLine(t *testing.T, out string) contractLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	raw := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(raw), &keys); err != nil {
		t.Fatalf("last line is not JSON: %q", raw)
	}
	if len(keys) != 4 {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var line contractLine
	if err := json.Unmarshal([]byte(raw), &line); err != nil {
		t.Fatal(err)
	}
	return line
}

// A quick traced run of all four workloads: every metric BENCHMARK.json
// names is reported with its unit on every workload, outputs are
// correct (pinned digests included), and the trace files load.
func TestQuickTracedRun(t *testing.T) {
	s := readBenchSpec(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "runs.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seconds", "0", "-seed", "1993", "-trace", dir, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	records, err := readRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(workloads) {
		t.Fatalf("%d records, want %d", len(records), len(workloads))
	}
	for _, r := range records {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%t failed=%d attempted=%d: %v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Failures)
		}
		if r.Workload != "serve_fleet" && r.Pinned == 0 {
			t.Errorf("%s: no digest was checked against testdata/digests.json", r.Workload)
		}
		for _, m := range s.EndToEnd {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", r.Workload, m.Name, got, m.Unit)
			}
		}
		for _, m := range s.PerLayer {
			if got, ok := r.Layers[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %t), want unit %s", r.Workload, m.Name, got, ok, m.Unit)
			}
		}
	}
	line := lastLine(t, stdout.String())
	if !line.Correct || line.Failed != 0 || len(line.Metrics) != len(workloads)*len(s.PerLayer) {
		t.Errorf("contract line: correct=%t failed=%d with %d metrics", line.Correct, line.Failed, len(line.Metrics))
	}

	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("spans.json: %v", err)
	}
	seen := make(map[string]bool)
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" {
			seen[e.Name] = true
		}
	}
	for _, want := range []string{"experiments.table1", "core.System.Run", "request", "coordinator/run", "worker:w1/exec"} {
		if !seen[want] {
			t.Errorf("spans.json has no %q span", want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "layers.json")); err != nil {
		t.Error(err)
	}
}

// Untraced, the last line carries exactly the end-to-end metric set.
func TestContractLineUntraced(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seconds", "0", "-seed", "5", "-workload", "sim_hit_heavy"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	line := lastLine(t, stdout.String())
	var got []string
	for n := range line.Metrics {
		got = append(got, n)
	}
	if !sameSet(got, endToEnd) || !line.Correct || line.Attempted < 1 {
		t.Errorf("contract line %+v, want the end-to-end set %v", line, endToEnd)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-seconds", "-1"}, {"-compare", "only-one"}} {
		if code := run(args, new(bytes.Buffer), new(bytes.Buffer)); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// The benchmark builds its machines by hand, and the fleet's worker runs
// the engine's executor on single-use engines; both must give the
// results the sweep engine gives for the same job, byte for byte.
func TestSimMatchesEngine(t *testing.T) {
	eng := sweep.New(sweep.Options{Workers: 1})
	for _, m := range machines {
		j := quickSizes.miss.job(m, 1993)
		sys, _, err := build(j, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunOne(j)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := digest(sys.Run()), digest(res.Metrics()); got != want {
			t.Errorf("%s: benchmark digest %s, engine %s", m.name, got[:12], want[:12])
		}
		dm, err := detachedExecutor(j)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := digest(dm), digest(res.Metrics()); got != want {
			t.Errorf("%s: detached executor digest %s, engine %s", m.name, got[:12], want[:12])
		}
	}
}

// Quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   samples
		want [3]float64
	}{
		{samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{samples{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{samples{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3, ok := c.in.quartiles()
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func record(wl string, failed int, vals map[string]float64) result {
	r := result{Workload: wl, Attempted: 100, Failed: failed, Metrics: make(map[string]metric)}
	for n, v := range vals {
		r.Metrics[n] = metric{Value: v}
	}
	return r
}

func TestCompareVerdicts(t *testing.T) {
	var sp spec
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"lat","better":"lower","bound":0.1},
		{"name":"tput","better":"higher","bound":0.1},
		{"name":"noisy","better":"lower","bound":0.1},
		{"name":"setup_s","better":"lower","bound":0.1},
		{"name":"gone","better":"lower","bound":0.1}],
		"per_layer":[{"name":"timing","better":"lower"},{"name":"layer","better":"lower"}]}`), &sp); err != nil {
		t.Fatal(err)
	}
	var a, b []result
	for i, v := range []float64{100, 101, 99, 100, 102} {
		noisyA := []float64{50, 100, 150, 100, 100}[i]
		// setup_s rises by 40 ms, 25%: within the 50 ms floor.
		a = append(a, record("sim_hit_heavy", 0, map[string]float64{"lat": v, "tput": v, "noisy": noisyA, "setup_s": 0.16, "timing": v}))
		b = append(b, record("sim_hit_heavy", 1, map[string]float64{"lat": v * 1.05, "tput": v * 0.8, "noisy": 100, "setup_s": 0.2, "timing": 2 * v}))
	}
	want := map[string]string{
		"lat": "unchanged", "tput": "regressed", "noisy": "unresolved", "setup_s": "unchanged",
		"gone": "missing", "timing": "-", "failed_frac": "regressed",
	}
	seen := 0
	for _, r := range compareSets(sp, a, b) {
		seen++
		if r.verdict != want[r.metric] {
			t.Errorf("%s: verdict %s, want %s", r.metric, r.verdict, want[r.metric])
		}
	}
	if seen != len(want) {
		t.Errorf("%d rows, want %d (a per-layer metric in neither set gets none)", seen, len(want))
	}
}

// digestKeys are the digests pinned at -seed 1993 for one set of sizes.
func digestKeys(sz sizes) []string {
	keys := []string{fmt.Sprintf("suite/refs=%d/seed=1993", sz.suiteRefs)}
	for _, s := range []shape{sz.miss, sz.hit} {
		for _, m := range machines {
			keys = append(keys, fmt.Sprintf("sim/%s/seed=1993/%s", s, m.name))
		}
	}
	return keys
}

// TestPinnedDigests checks that testdata/digests.json pins every
// digest a run at -seed 1993 produces, full size and quick. With
// -update it regenerates the file (a deliberate change to the
// simulated results must come with a new file).
func TestPinnedDigests(t *testing.T) {
	if *update {
		got := make(map[string]string)
		for _, quick := range []bool{false, true} {
			out := filepath.Join(t.TempDir(), "runs.jsonl")
			args := []string{"-seconds", "0", "-seed", "1993", "-out", out}
			if quick {
				args = append(args, "-quick")
			}
			for _, wl := range []string{"suite_cold", "sim_miss_heavy", "sim_hit_heavy"} {
				var stderr bytes.Buffer
				if code := run(append(args, "-workload", wl), new(bytes.Buffer), &stderr); code != 0 {
					t.Fatalf("%s: exit %d: %s", wl, code, stderr.String())
				}
			}
			records, err := readRecords(out)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range records {
				for k, v := range r.Digests {
					got[k] = v
				}
			}
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		pinnedJSON = b
	}
	pinned, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range append(digestKeys(fullSizes), digestKeys(quickSizes)...) {
		if len(pinned[k]) != 64 {
			t.Errorf("testdata/digests.json does not pin %s", k)
		}
	}
}
