package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestNewSystemFootprint bounds what building a machine allocates: a
// 16-CPU snooping ring is sixteen 64 KB caches of packed frames plus a
// few kilobytes per node for the ring, banks and processors.
func TestNewSystemFootprint(t *testing.T) {
	const cpus, bound = 16, 16 * 66 << 10
	gen := workload.NewGenerator(workload.Config{
		Profile: workload.MustProfile("MP3D", cpus), DataRefsPerCPU: 100, Seed: 1})
	var sys *System
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys = NewSystem(Config{Protocol: SnoopRing}, gen)
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b < best {
			best = b
		}
	}
	runtime.KeepAlive(sys)
	if best > bound {
		t.Fatalf("NewSystem allocated %d bytes for %d CPUs, want <= %d", best, cpus, bound)
	}
	t.Logf("NewSystem: %d bytes for %d CPUs", best, cpus)
}

// finalized reports whether done is closed within a few collections.
func finalized(done <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestRunResultDetachedFromSystem: a kept result must not keep its
// simulated machine alive. The finalizer sits on the workload source,
// which only the System references once the test lets go of it; the
// System itself cannot carry one: its processors point back at it, and
// Go does not promise to finalize an object inside a reference cycle.
func TestRunResultDetachedFromSystem(t *testing.T) {
	for name, run := range map[string]func(Config, workload.Source) *Metrics{
		"System.Run":          func(cfg Config, src workload.Source) *Metrics { return NewSystem(cfg, src).Run() },
		"core.Run sequential": Run,
		"core.Run parallel": func(cfg Config, src workload.Source) *Metrics {
			cfg.Parallel = 2
			m := Run(cfg, src)
			if m.Parallel.Partitions != 2 {
				t.Fatalf("parallel run fell back: %+v", m.Parallel)
			}
			return m
		},
	} {
		done := make(chan struct{})
		m := func() *Metrics {
			gen := privateGen(8, 200, 1)
			runtime.SetFinalizer(gen, func(*workload.Generator) { close(done) })
			return run(Config{Protocol: DirectoryRing}, gen)
		}()
		if m.DataRefs == 0 {
			t.Fatalf("%s: empty run", name)
		}
		if !finalized(done) {
			t.Errorf("%s: the returned metrics keep the machine reachable", name)
		}
		runtime.KeepAlive(m)
	}
}
