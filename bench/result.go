package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"

	"repro/internal/buildinfo"
)

// endToEnd is the end-to-end metric set, in BENCHMARK.json order. Each
// allocation metric belongs to one workload (its name says which), but
// every run's result line carries the whole set, so setAllocs defines
// each one on every workload.
//
// The host timings (hostTimings) are not in it: on the shared 2-core
// host the benchmark is sized for, their run-to-run spread over ten
// seeds measured 4–13% in quiet periods and 20–60% in busy ones, beyond
// the 10% a host timing may regress by, so they are per-layer metrics.
var endToEnd = []string{"setup_s", "suite_alloc_mb", "sim_alloc_bytes_per_ref", "serve_alloc_kb_per_req"}

// hostTimings are the workload-level host timings, each measured by the
// workload its name belongs to: suite_wall_s by suite_cold,
// sim_refs_per_s by the sim_* workloads, the rest by serve_fleet. A
// traced run reports all of them; the ones another workload owns come
// from a short probe of that workload.
var hostTimings = []string{
	"suite_wall_s", "sim_refs_per_s",
	"hit_p50_ms", "hit_p99_ms", "computed_p50_ms", "computed_p99_ms", "req_per_s",
}

// host identifies where a result was measured.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHost() host {
	bi := buildinfo.Read()
	commit := bi.Revision
	switch {
	case commit == "":
		commit = "unknown"
	case bi.Modified:
		commit += "+dirty"
	}
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  bi.GoVersion,
		Commit:     commit,
	}
}

// result is one workload run. Metrics holds the end-to-end set plus
// the workload's own host timings and failed_frac; Layers, filled only
// by a traced run, holds the per-layer set plus the layers only this
// workload exercises.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Quick     bool              `json:"quick,omitempty"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Digests   map[string]string `json:"digests,omitempty"`
	// Pinned counts digests checked against testdata/digests.json.
	Pinned  int               `json:"pinned_digests,omitempty"`
	Metrics map[string]metric `json:"metrics"`
	Layers  map[string]metric `json:"layers,omitempty"`

	pinned map[string]string
}

// maxFailureNotes bounds the failure messages a result keeps.
const maxFailureNotes = 20

func newResult(name string, c config) *result {
	return &result{
		Workload: name, Seed: c.seed, Seconds: c.window.Seconds(), Quick: c.quick,
		Host: readHost(), Digests: make(map[string]string),
		Metrics: make(map[string]metric), Layers: make(map[string]metric),
		pinned: c.pinned,
	}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: n}
}

func (r *result) setLayer(name string, v float64, unit string, n int) {
	r.Layers[name] = metric{Value: v, Unit: unit, Samples: n}
}

// fail counts one failed operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// checkPinned records a digest and, when testdata/digests.json pins
// the same key, compares the two; a mismatch is a failed operation.
func (r *result) checkPinned(key, digest string) {
	r.Digests[key] = digest
	want, ok := r.pinned[key]
	if !ok {
		return
	}
	r.Pinned++
	if want != digest {
		r.fail("%s: digest %s, pinned %s", key, digest[:12], want[:12])
	}
}

// finish settles the outcome fields; a traced run also reports the
// workload's own host timings in its per-layer set.
func (r *result) finish(traced bool) {
	r.Correct = r.Failed == 0
	r.set("failed_frac", ratio(uint64(r.Failed), uint64(max(r.Attempted, 1))), "frac", r.Attempted)
	if traced {
		for _, n := range hostTimings {
			if m, ok := r.Metrics[n]; ok {
				r.Layers[n] = m
			}
		}
	}
}

// setAllocs sets the allocation metrics from the heap bytes the whole
// process allocated in the measured window, over the ops it completed
// (suite passes, rounds of six simulations, or requests). On its own
// workload each metric divides by the unit its name gives; elsewhere it
// is the allocation per op, in its unit. The sim_* workloads then reset
// sim_alloc_bytes_per_ref per simulated data reference.
func (r *result) setAllocs(w windowStats, ops int) {
	perOp := float64(w.allocBytes) / float64(ops)
	r.set("suite_alloc_mb", perOp/1e6, "MB", ops)
	r.set("sim_alloc_bytes_per_ref", perOp, "B", ops)
	r.set("serve_alloc_kb_per_req", perOp/1e3, "kB", ops)
}

// contractLine is the last line of standard output: the outcome and
// exactly the metric set of the mode, end-to-end or per-layer.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func pick(from map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := from[n]
		if !ok {
			continue
		}
		out[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// contract builds the contract line for one or more workload results.
// With several, metric names are prefixed with the workload.
func contract(results []*result, traced bool) contractLine {
	line := contractLine{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		from, names := r.Metrics, endToEnd
		if traced {
			from, names = r.Layers, perLayerNames()
		}
		for n, m := range pick(from, names) {
			if len(results) > 1 {
				n = r.Workload + "." + n
			}
			line.Metrics[n] = m
		}
	}
	return line
}

//go:embed testdata/digests.json
var pinnedJSON []byte

// loadPinned reads the digests pinned at -seed 1993.
func loadPinned() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %v", err)
	}
	return m, nil
}
