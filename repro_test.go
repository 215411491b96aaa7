package repro

import (
	"reflect"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	res, err := Run(Config{DataRefsPerCPU: 800})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcUtil <= 0 || res.ProcUtil > 1 {
		t.Fatalf("ProcUtil = %v", res.ProcUtil)
	}
	if res.MissLatencyNS <= 0 {
		t.Fatalf("MissLatencyNS = %v", res.MissLatencyNS)
	}
	if res.Misses == 0 {
		t.Fatal("no misses recorded")
	}
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestRunAllProtocols(t *testing.T) {
	for _, p := range Protocols() {
		res, err := Run(Config{Protocol: p, Benchmark: "MP3D", CPUs: 8, DataRefsPerCPU: 500})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.ExecTimeUS <= 0 {
			t.Fatalf("%v: no execution time", p)
		}
	}
}

func TestRunRejectsUnknownBenchmark(t *testing.T) {
	if _, err := Run(Config{Benchmark: "LINPACK"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Run(Config{Benchmark: "MP3D", CPUs: 64}); err == nil {
		t.Fatal("MP3D/64 accepted (no such profile)")
	}
	if _, err := Run(Config{Protocol: Protocol("crossbar")}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestRunRejectsMalformedConfig: a machine the components cannot
// build comes back from Run and RunTrace as an error, never a panic.
func TestRunRejectsMalformedConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"clusters do not divide": {Protocol: HierRing, CPUs: 16, Clusters: 5},
		"ring width not bytes":   {RingWidthBits: 7},
		"negative ring clock":    {RingMHz: -500},
		"negative bus clock":     {Protocol: SnoopBus, BusMHz: -50},
		// The 600-ref warm-up would leave 0, which the generator reads
		// as its default length.
		"stream shorter than warm-up": {CPUs: 8, DataRefsPerCPU: -600},
		"negative stream":             {CPUs: 8, DataRefsPerCPU: -5000},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// RunTrace checks the machine at the trace's CPU count: 16 clusters
	// divide the 16 CPUs Config defaults to, but not the trace's 8, and
	// a directory record tracks at most 64 nodes.
	dir := t.TempDir()
	path := dir + "/m8.trc.gz"
	writeTestTrace(t, path)
	wide := dir + "/w65.trc.gz"
	writeWideTrace(t, wide, 65)
	for name, run := range map[string]struct {
		cfg  Config
		path string
	}{
		"clusters do not divide the trace": {Config{Protocol: HierRing, Clusters: 16}, path},
		"ring width not bytes":             {Config{RingWidthBits: 7}, path},
		"negative stream":                  {Config{DataRefsPerCPU: -5000}, path},
		"65 nodes on the full map":         {Config{Protocol: DirectoryRing}, wide},
		"65 nodes on the SCI list":         {Config{Protocol: SCIRing}, wide},
	} {
		if _, err := RunTrace(run.cfg, run.path); err == nil {
			t.Errorf("trace, %s: accepted", name)
		}
	}
	// The snooping machines keep no per-node directory state, and 64
	// nodes still fit the directory machines.
	for _, p := range []Protocol{SnoopRing, SnoopBus} {
		if _, err := RunTrace(Config{Protocol: p}, wide); err != nil {
			t.Errorf("65-CPU trace on %s: %v", p, err)
		}
	}
	writeWideTrace(t, wide, 64)
	for _, p := range []Protocol{DirectoryRing, SCIRing} {
		if _, err := RunTrace(Config{Protocol: p}, wide); err != nil {
			t.Errorf("64-CPU trace on %s: %v", p, err)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Benchmark: "CHOLESKY", CPUs: 8, DataRefsPerCPU: 500, Seed: 7}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config differed:\n%+v\n%+v", a, b)
	}
}

func TestRunTraceSample(t *testing.T) {
	cfg := Config{Benchmark: "MP3D", CPUs: 8, DataRefsPerCPU: 800, Seed: 3}

	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.HasTrace() {
		t.Fatal("untraced run claims a trace")
	}
	if err := plain.WriteTrace(&strings.Builder{}); err == nil {
		t.Fatal("WriteTrace on an untraced run did not fail")
	}
	if plain.SpanClasses() != nil {
		t.Fatal("untraced run has span classes")
	}

	cfg.TraceSample = 32
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !traced.HasTrace() {
		t.Fatal("traced run has no trace")
	}
	// Tracing is pure observation: every simulated quantity matches the
	// untraced run exactly.
	if traced.MissLatencyNS != plain.MissLatencyNS || traced.ExecTimeUS != plain.ExecTimeUS ||
		traced.Misses != plain.Misses || traced.Upgrades != plain.Upgrades {
		t.Fatalf("tracing changed the results:\ntraced  %+v\nplain   %+v", traced, plain)
	}
	classes := traced.SpanClasses()
	if len(classes) == 0 {
		t.Fatal("traced run has no span classes")
	}
	var spans uint64
	for _, c := range classes {
		if c.Spans == 0 || c.MeanNS < 0 || c.P95NS < c.P50NS {
			t.Errorf("implausible class summary: %+v", c)
		}
		if c.Class != "write-back" && c.MeanNS <= 0 {
			t.Errorf("class %s has zero mean latency", c.Class)
		}
		spans += c.Spans
	}
	if spans < traced.Misses {
		t.Errorf("span classes cover %d transactions, want at least the %d misses", spans, traced.Misses)
	}
	var sb strings.Builder
	if err := traced.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Fatal("trace output missing traceEvents")
	}
}

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 12 {
		t.Fatalf("Benchmarks() = %d entries, want 12", len(bs))
	}
}

func TestRingSpeedMatters(t *testing.T) {
	fast, err := Run(Config{Benchmark: "MP3D", CPUs: 16, ProcCycleNS: 5, RingMHz: 500, DataRefsPerCPU: 800})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(Config{Benchmark: "MP3D", CPUs: 16, ProcCycleNS: 5, RingMHz: 250, DataRefsPerCPU: 800})
	if err != nil {
		t.Fatal(err)
	}
	if fast.MissLatencyNS >= slow.MissLatencyNS {
		t.Fatalf("500 MHz ring latency %v >= 250 MHz %v", fast.MissLatencyNS, slow.MissLatencyNS)
	}
}

func TestSuiteHeadlineComparison(t *testing.T) {
	s := NewSuite(SuiteOptions{DataRefsPerCPU: 900, Seed: 42})
	sn, dir := s.SnoopVsDirectory("MP3D", 16)
	// The paper's headline: snooping outperforms the directory for
	// MP3D — lower miss latency, at least comparable utilization.
	if sn.MissLatencyNS >= dir.MissLatencyNS {
		t.Fatalf("snoop latency %v >= directory %v", sn.MissLatencyNS, dir.MissLatencyNS)
	}
	if sn.ProcUtil < dir.ProcUtil-0.02 {
		t.Fatalf("snoop util %v well below directory %v", sn.ProcUtil, dir.ProcUtil)
	}
	// Snooping loads the ring more.
	if sn.NetworkUtil <= dir.NetworkUtil {
		t.Fatalf("snoop ring util %v <= directory %v", sn.NetworkUtil, dir.NetworkUtil)
	}
}

func TestSuiteTable3(t *testing.T) {
	s := NewSuite(SuiteOptions{DataRefsPerCPU: 300})
	out := s.Table3()
	for _, cell := range []string{"40", "20", "10", "152", "76", "38"} {
		if !strings.Contains(out, cell) {
			t.Fatalf("Table 3 missing value %s:\n%s", cell, out)
		}
	}
}

func TestSuiteAblationAccessControl(t *testing.T) {
	s := NewSuite(SuiteOptions{DataRefsPerCPU: 300})
	out := s.AblationAccessControl(8)
	for _, want := range []string{"slotted", "insertion", "token"} {
		if !strings.Contains(out, want) {
			t.Fatalf("access-control ablation missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceRoundTrip(t *testing.T) {
	// Generate a trace via the internal tool path and replay it through
	// the facade; results must be deterministic and sane.
	dir := t.TempDir()
	path := dir + "/m8.trc.gz"
	// Write the trace with tracegen's building blocks.
	writeTestTrace(t, path)
	res, err := RunTrace(Config{Protocol: SnoopRing, ProcCycleNS: 5}, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses == 0 || res.ProcUtil <= 0 {
		t.Fatalf("replay produced no activity: %+v", res)
	}
	res2, err := RunTrace(Config{Protocol: SnoopRing, ProcCycleNS: 5}, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("trace replay not deterministic")
	}
}

func TestRunTraceErrors(t *testing.T) {
	if _, err := RunTrace(Config{}, "/nonexistent/file.trc"); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestRunHierRing(t *testing.T) {
	res, err := Run(Config{Protocol: HierRing, Benchmark: "MP3D", CPUs: 16, Clusters: 4, DataRefsPerCPU: 600})
	if err != nil {
		t.Fatal(err)
	}
	if res.NetworkUtil <= 0 {
		t.Fatal("hierarchical rings reported no network utilization")
	}
}

func TestSuiteAllMethodsSmoke(t *testing.T) {
	// Exercise every Suite entry point at a small scale; each must
	// produce non-empty output containing its key series or rows.
	if testing.Short() {
		t.Skip("slow: runs every experiment")
	}
	s := NewSuite(SuiteOptions{DataRefsPerCPU: 400, Seed: 13})
	checks := []struct {
		name string
		out  func() string
		want string
	}{
		{"Table1", s.Table1, "l.list"},
		{"Table2", s.Table2, "SIMPLE"},
		{"Table3", s.Table3, "128 bytes"},
		{"Table4", s.Table4, "CHOLESKY"},
		{"Figure3", func() string { return s.Figure3("MP3D") }, "snoop-16"},
		{"Figure3Plot", func() string { return s.Figure3Plot("MP3D") }, "cycle(ns)"},
		{"Figure4", s.Figure4, "WEATHER"},
		{"Figure5", s.Figure5, "1-cycle-dirty"},
		{"Figure6", func() string { return s.Figure6("MP3D", 8) }, "bus-50MHz"},
		{"Figure6Plot", func() string { return s.Figure6Plot("MP3D", 8) }, "ring-500MHz"},
		{"Validation", func() string { return s.Validation("MP3D", 8) }, "snoop-ring"},
		{"AblationSlotMix", func() string { return s.AblationSlotMix("MP3D", 8) }, "pairs"},
		{"AblationStarvation", func() string { return s.AblationStarvationRule("MP3D", 8) }, "deferrals"},
		{"AblationWideRing", func() string { return s.AblationWideRing("MP3D", 8) }, "ring util"},
		{"AblationBlockSize", func() string { return s.AblationBlockSize("MP3D", 8) }, "snoop rate"},
		{"AblationLatencyTolerance", func() string { return s.AblationLatencyTolerance("MP3D", 8) }, "speedup"},
		{"AblationMultitasking", func() string { return s.AblationMultitasking("MP3D", 8) }, "quantum"},
		{"LatencyDecomposition", func() string { return s.LatencyDecomposition("MP3D", 8, 5) }, "contention"},
		{"ExtensionHierarchy", func() string { return s.ExtensionHierarchy("MP3D", 16, 4) }, "flat-ring"},
	}
	for _, c := range checks {
		out := c.out()
		if !strings.Contains(out, c.want) {
			t.Errorf("%s output missing %q:\n%s", c.name, c.want, out)
		}
	}
}
