package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Every protocol engine runs its transactions as pooled records (see
// internal/coherence/txn.go), so once the pools, the kernel slab and
// the per-block tables have warmed up, a miss, an upgrade or a dirty
// write-back allocates nothing. The guard drives a fixed cycle of
// conflicting accesses straight into each engine: eight blocks on
// separate pages (so their homes spread over the nodes) all map to the
// same set of a 256-byte direct-mapped cache, so nearly every access
// misses, stores to shared copies upgrade, and dirty victims write
// back.
func TestEngineMissZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"snoop-ring", Config{Protocol: SnoopRing}},
		{"snoop-ring traced", Config{Protocol: SnoopRing, Trace: obs.Config{SampleEvery: 2, BufferCap: 64, TrackCap: 64}}},
		{"directory-ring", Config{Protocol: DirectoryRing}},
		{"directory-ring traced", Config{Protocol: DirectoryRing, Trace: obs.Config{SampleEvery: 2, BufferCap: 64, TrackCap: 64}}},
		{"sci-ring", Config{Protocol: SCIRing}},
		{"snoop-bus", Config{Protocol: SnoopBus}},
		{"hier-ring", Config{Protocol: HierRing}},
	}
	const nodes, blocks, steps = 8, 8, 64
	type access struct {
		node  int
		addr  uint64
		write bool
	}
	rng := sim.NewRand(5)
	script := make([]access, steps)
	for i := range script {
		script[i] = access{rng.Intn(nodes), uint64(1+rng.Intn(blocks)) << 12, rng.Bool(0.4)}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Cache = cache.Config{SizeBytes: 256}
			sys := NewSystem(cfg, workload.NewGenerator(workload.Config{
				Profile: workload.MustProfile("MP3D", nodes), DataRefsPerCPU: 1, Seed: 1}))
			e, k := sys.EngineImpl(), sys.Kernel()
			var count [coherence.NumTxn]int
			done := func(_ sim.Time, res coherence.Result) {
				if !res.Hit {
					count[res.Txn]++
				}
			}
			cycle := func() {
				for _, a := range script {
					e.Access(a.node, a.addr, a.write, done)
					k.Run()
				}
			}
			for i := 0; i < 400; i++ {
				cycle()
			}
			for _, txn := range []coherence.Txn{coherence.ReadMissDirty, coherence.WriteMissDirty, coherence.Invalidation} {
				if count[txn] == 0 {
					t.Fatalf("the access cycle produced no %v transactions: %v", txn, count)
				}
			}
			if wb := sys.engine.WriteBacksOf(0) + sys.engine.WriteBacksOf(1); wb == 0 {
				t.Fatal("the access cycle produced no write-backs")
			}
			if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
				t.Fatalf("%d-access miss cycle allocates %.1f objects, want 0", steps, allocs)
			}
		})
	}
}
