package sweep

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testGrid is a small Figure-5-style sweep: protocol × benchmark ×
// CPUs × processor cycle.
func testGrid() []Job {
	var jobs []Job
	for _, proto := range []string{"snoop-ring", "directory-ring"} {
		for _, cpus := range []int{8, 16} {
			for _, cycNS := range []int64{5, 20} {
				jobs = append(jobs, Job{
					Protocol:       proto,
					Benchmark:      "MP3D",
					CPUs:           cpus,
					ProcCyclePS:    cycNS * 1000,
					DataRefsPerCPU: 300,
					Seed:           7,
				})
			}
		}
	}
	return jobs
}

func TestJobHashCanonical(t *testing.T) {
	// Two spellings of the same experiment hash identically.
	a := Job{Benchmark: "MP3D", CPUs: 16, DataRefsPerCPU: 2000, Seed: 1}
	b := Job{}
	if a.Hash() != b.Hash() {
		t.Errorf("normalized defaults should hash like explicit defaults")
	}
	// Any axis change must change the hash.
	mutants := []Job{
		{Protocol: "directory-ring"},
		{Benchmark: "WATER", CPUs: 8},
		{CPUs: 8},
		{ProcCyclePS: 5000},
		{Seed: 2},
		{DataRefsPerCPU: 100},
		{RingWidthBits: 64},
		{NonBlockingStores: true},
		{Kind: "calibrated"},
	}
	seen := map[string]bool{b.Hash(): true}
	for _, m := range mutants {
		h := m.Hash()
		if seen[h] {
			t.Errorf("job %+v collides with a previous hash", m)
		}
		seen[h] = true
	}
}

// TestJobHashGolden pins the content hashes of classic jobs: one per
// protocol, the write-buffer machine, non-default ring width, cache
// size, cache block, page size and cluster count, and two of the
// experiment runner's calibrated jobs. The hashes key every cached
// artifact, so a change to Job's fields or their encoding that moves
// any of them strands every result already on disk. The table was
// computed while Job still had its omitempty ring_segments field, so it
// also shows that retiring the field moved no classic hash.
func TestJobHashGolden(t *testing.T) {
	for _, g := range []struct {
		job  Job
		hash string
	}{
		{Job{Protocol: "snoop-ring", Benchmark: "MP3D", CPUs: 16, DataRefsPerCPU: 2000, Seed: 1},
			"5f96b71674ad413a5958108154f13c1b8e40c4004feb62b68ed9fde70c435162"},
		{Job{Protocol: "directory-ring", Benchmark: "MP3D", CPUs: 32, ProcCyclePS: 5000, DataRefsPerCPU: 2000, Seed: 1993},
			"667c8c11d61f566995512e0ac3983577ed60872e4ffb4515885951d46bfb5dd5"},
		{Job{Protocol: "sci-ring", Benchmark: "WATER", CPUs: 16, DataRefsPerCPU: 500, Seed: 7},
			"4bee8a1f9ff8e5618ff86e2103a39e10f75c751685ad5f0554ac5a3279940a35"},
		{Job{Protocol: "snoop-bus", Benchmark: "CHOLESKY", CPUs: 8, BusClockPS: 10000, DataRefsPerCPU: 500, Seed: 7},
			"7bdc2ec9ea54753efed62bed4b7231fedcef6476397ceafb65b183c231372e2e"},
		{Job{Protocol: "hier-ring", Benchmark: "FFT", CPUs: 64, DataRefsPerCPU: 500, Seed: 7},
			"37b06b6080f4d4a99e5e7d3b76cc20205cb407ded8b510ee2ea7c364c15d8cd9"},
		{Job{Protocol: "directory-ring", Benchmark: "MP3D", CPUs: 16, NonBlockingStores: true, WriteBufferDepth: 4, DataRefsPerCPU: 2000, Seed: 1},
			"d1ab58366bb0f92b7d4170ebcd15d7ab6bafbe542da7bdabab5296181f811e0d"},
		{Job{Protocol: "snoop-ring", Benchmark: "MP3D", CPUs: 16, RingWidthBits: 64, DataRefsPerCPU: 2000, Seed: 1},
			"733de3a3dd337e7734281e6f472e76d72243f9f1869e80fb75293fba03405d8f"},
		{Job{Protocol: "snoop-ring", Benchmark: "MP3D", CPUs: 16, CacheBytes: 4096, DataRefsPerCPU: 2000, Seed: 1},
			"d957cce0f893b76e66163dd06c91503b4c2adbad80e1854eadafbe6927a1c323"},
		{Job{Protocol: "snoop-ring", Benchmark: "MP3D", CPUs: 16, CacheBlockBytes: 64, RingBlockBytes: 64, DataRefsPerCPU: 2000, Seed: 1},
			"a5d13fa6286f083551c562ff1464601b7c43682948251da97e69039f7c04f909"},
		{Job{Protocol: "directory-ring", Benchmark: "MP3D", CPUs: 16, PageBytes: 8192, DataRefsPerCPU: 2000, Seed: 1},
			"8f7cc72a1e7241fbc633f41f79e5bf92418a9c2e3ee2399aff0660f43638c764"},
		{Job{Protocol: "hier-ring", Benchmark: "MP3D", CPUs: 32, Clusters: 8, DataRefsPerCPU: 2000, Seed: 1},
			"79ba4255d67a2db652ed981d8191b02b03e5df0d483beccbad61cdbe0e3f0fee"},
		{Job{Kind: "calibrated", Protocol: "directory-ring", Benchmark: "MP3D", CPUs: 16, DataRefsPerCPU: 2000, CalibrationIters: 2, Seed: 0x5eed},
			"d12df5371c455805562662be88e035b9bbc7af30f631dc31c8430d13063203bf"},
		{Job{Kind: "calibrated", Protocol: "snoop-ring", Benchmark: "MP3D", CPUs: 16, ProcCyclePS: 2500, RingNoStarvationRule: true,
			WarmupDataRefs: 600, DataRefsPerCPU: 2000, CalibrationIters: 2, Seed: 0x5eed},
			"1a88f1f44def66cd0a5b7509cdf555778f4f76e14ac87f135c733d868b9086a0"},
	} {
		if got := g.job.Hash(); got != g.hash {
			t.Errorf("%s: hash %s, pinned %s (canonical %s)", g.job, got, g.hash, g.job.Canonical())
		}
	}
}

// TestJobRejectsBadGeometry: every geometry a component would panic on
// comes back from SystemConfig as a job error, so a malformed job over
// the wire cannot take a sweep worker (and the daemon) down.
func TestJobRejectsBadGeometry(t *testing.T) {
	for name, j := range map[string]Job{
		"block not a power of two": {CacheBlockBytes: 3},
		"block too small to pack":  {CacheBlockBytes: 2},
		"one-byte block":           {CacheBlockBytes: 1},
		"cache size not 2^k sets":  {CacheBytes: 100000},
		"block larger than cache":  {CacheBytes: 4096, CacheBlockBytes: 8192},
		"negative cache size":      {CacheBytes: -64},
		"page not a power of two":  {PageBytes: 3000},
		"negative page":            {PageBytes: -4096},
		"clusters do not divide":   {Protocol: "hier-ring", CPUs: 16, Clusters: 5},
		"one cluster":              {Protocol: "hier-ring", CPUs: 16, Clusters: 1},
		"hier ring width":          {Protocol: "hier-ring", RingWidthBits: 7},
		"ring width not bytes":     {RingWidthBits: 7},
		"ring block not words":     {RingBlockBytes: 3},
		"negative ring block":      {RingBlockBytes: -8},
		"negative ring clock":      {RingClockPS: -1},
		"negative probe pairs":     {RingProbePairs: -1},
		"negative processor cycle": {ProcCyclePS: -1},
		"negative bus clock":       {Protocol: "snoop-bus", BusClockPS: -1},
		// Negative stream lengths: -600 plus the 600-ref warm-up is 0,
		// which the generator reads as its default length.
		"stream shorter than warm-up": {CPUs: 8, DataRefsPerCPU: -600},
		"negative stream":             {CPUs: 8, DataRefsPerCPU: -5000},
		"negative warm-up":            {CPUs: 8, WarmupDataRefs: -5},
		"negative write buffer":       {NonBlockingStores: true, WriteBufferDepth: -1},
		"65 directory nodes":          {Protocol: "directory-ring", CPUs: 65},
	} {
		_, err := j.SystemConfig()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if _, err := standaloneExecutor(obs.Config{})(j); err == nil {
			t.Errorf("%s: the executor ran it", name)
		}
	}
	// Valid non-default geometries keep working, and validation never
	// touches a job's identity.
	for _, j := range []Job{
		{CacheBlockBytes: 4, CacheBytes: 4096},
		{CacheBlockBytes: 64},
		{Protocol: "hier-ring", CPUs: 16, Clusters: 8},
		{Protocol: "snoop-bus", RingWidthBits: 7}, // the bus ignores ring fields
		{RingWidthBits: 64, PageBytes: 8192},
	} {
		if _, err := j.SystemConfig(); err != nil {
			t.Errorf("%+v rejected: %v", j, err)
		}
	}
}

func TestJobRNGSeedDiffersPerJob(t *testing.T) {
	a := Job{Seed: 1}
	b := Job{Seed: 1, CPUs: 8}
	if a.RNGSeed() == b.RNGSeed() {
		t.Error("distinct jobs derived the same RNG seed")
	}
	if a.RNGSeed() != a.RNGSeed() {
		t.Error("RNG seed not stable")
	}
}

// TestDeterminismAcrossWorkerCounts is the determinism regression the
// engine guarantees: the same sweep at workers=1 and workers=8 yields
// byte-identical serialized metrics for every job.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	jobs := testGrid()
	r1, err := New(Options{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := New(Options{Workers: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		b1, b8 := r1[i].CanonicalMetrics(), r8[i].CanonicalMetrics()
		if !bytes.Equal(b1, b8) {
			t.Errorf("job %s: workers=1 and workers=8 metrics differ:\n%s\nvs\n%s",
				jobs[i], b1, b8)
		}
	}
}

func TestRepeatedSweepHitsCache(t *testing.T) {
	e := New(Options{Workers: 4})
	jobs := testGrid()
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	first := e.Stats()
	if first.LastBatch.Computed != len(jobs) {
		t.Fatalf("cold batch computed %d of %d", first.LastBatch.Computed, len(jobs))
	}
	r1, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if got := s.LastBatch.HitRate(); got < 0.9 {
		t.Errorf("repeated sweep hit rate %.2f, want >= 0.90", got)
	}
	if s.LastBatch.Computed != 0 {
		t.Errorf("repeated sweep recomputed %d jobs", s.LastBatch.Computed)
	}
	// Cache hits return the same live metrics object.
	r2, err := e.RunOne(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if r1[0].Metrics() != r2.Metrics() {
		t.Error("cache hit returned a different metrics object")
	}
	if s.Done != 2*len(jobs) || s.Running != 0 || s.Queued != 2*len(jobs) {
		t.Errorf("lifetime stats off: %+v", s)
	}
}

func TestDuplicateJobsInOneBatchComputeOnce(t *testing.T) {
	var computed atomic.Int64
	counting := func(j Job) (*core.Metrics, error) {
		computed.Add(1)
		return runStandalone(j, obs.Config{})
	}
	e := New(Options{Workers: 8, Executors: map[string]Executor{"": counting}})
	job := Job{Benchmark: "MP3D", CPUs: 8, DataRefsPerCPU: 200}
	jobs := []Job{job, job, job, job}
	res, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := computed.Load(); n != 1 {
		t.Errorf("duplicate job computed %d times", n)
	}
	for _, r := range res[1:] {
		if r.Metrics() != res[0].Metrics() {
			t.Error("duplicates did not share one result")
		}
	}
}

func TestDiskCacheColdVsWarm(t *testing.T) {
	dir := t.TempDir()
	jobs := testGrid()[:4]
	cold, err := New(Options{Workers: 2, CacheDir: dir}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh engine sharing the directory replays from disk.
	e2 := New(Options{Workers: 2, CacheDir: dir})
	warm, err := e2.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := e2.Stats()
	if s.DiskHits != len(jobs) {
		t.Errorf("disk hits = %d, want %d (computed %d)", s.DiskHits, len(jobs), s.Computed)
	}
	for i := range jobs {
		if !bytes.Equal(cold[i].CanonicalMetrics(), warm[i].CanonicalMetrics()) {
			t.Errorf("job %s: cache-cold and cache-warm metrics differ", jobs[i])
		}
		// The replayed result reconstructs live metrics correctly.
		if warm[i].Metrics().ProcUtil() != cold[i].Metrics().ProcUtil() {
			t.Errorf("job %s: replayed ProcUtil differs", jobs[i])
		}
	}
}

func TestRunPropagatesExecutorError(t *testing.T) {
	e := New(Options{Workers: 2})
	jobs := []Job{
		{Benchmark: "MP3D", CPUs: 8, DataRefsPerCPU: 150},
		{Benchmark: "NOSUCH", CPUs: 8, DataRefsPerCPU: 150},
	}
	res, err := e.Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if res[0] == nil || res[0].Metrics() == nil {
		t.Error("healthy job should still complete")
	}
	if res[1] != nil {
		t.Error("failed job should have nil result")
	}
	if s := e.Stats(); s.Errors != 1 {
		t.Errorf("errors = %d, want 1", s.Errors)
	}
}

func TestUnknownKindErrors(t *testing.T) {
	e := New(Options{Workers: 1})
	if _, err := e.RunOne(Job{Kind: "nope"}); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestRunHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Options{Workers: 1})
	res, err := e.Run(ctx, testGrid())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	nils := 0
	for _, r := range res {
		if r == nil {
			nils++
		}
	}
	if nils == 0 {
		t.Error("cancelled run should leave undispatched jobs nil")
	}
}

func TestEventsStream(t *testing.T) {
	var starts, dones, hits atomic.Int64
	e := New(Options{Workers: 2, OnEvent: func(ev Event) {
		switch ev.Type {
		case EventStart:
			starts.Add(1)
		case EventDone:
			dones.Add(1)
			if ev.Wall <= 0 {
				t.Error("done event without wall clock")
			}
		case EventHit:
			hits.Add(1)
		}
	}})
	jobs := testGrid()[:3]
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if starts.Load() != 3 || dones.Load() != 3 || hits.Load() != 3 {
		t.Errorf("events start/done/hit = %d/%d/%d, want 3/3/3",
			starts.Load(), dones.Load(), hits.Load())
	}
}

func TestStandaloneMatchesDirectSimulation(t *testing.T) {
	// The engine's default executor must equal building the system by
	// hand with the derived seed — memoization never changes results.
	job := Job{Protocol: "snoop-ring", Benchmark: "WATER", CPUs: 8,
		ProcCyclePS: int64(5 * sim.Nanosecond), DataRefsPerCPU: 400, Seed: 3}
	direct, err := runStandalone(job, obs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(Options{Workers: 4}).RunOne(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics().ExecTime != direct.ExecTime ||
		res.Metrics().MissLatency.Value() != direct.MissLatency.Value() {
		t.Error("engine result differs from direct simulation")
	}
	if res.Summary().ProcUtil != direct.ProcUtil() {
		t.Error("summary does not match metrics")
	}
}
