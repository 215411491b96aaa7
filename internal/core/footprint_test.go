package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestNewSystemFootprint bounds what building a machine allocates: a
// 16-CPU snooping ring is sixteen 64 KB caches of packed frames plus a
// few kilobytes per node for the ring, banks and processors. The pools
// are emptied first, so every build is cold: nothing is released
// between the builds, and the bound is the modelled size.
func TestNewSystemFootprint(t *testing.T) {
	const cpus, bound = 16, 16 * 66 << 10
	gen := workload.NewGenerator(workload.Config{
		Profile: workload.MustProfile("MP3D", cpus), DataRefsPerCPU: 100, Seed: 1})
	emptyPools()
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
	done := make(chan struct{})
	m := func() *Metrics {
		gen := workload.NewGenerator(workload.Config{
			Profile: workload.MustProfile("MP3D", 8), DataRefsPerCPU: 200, Seed: 1})
		runtime.SetFinalizer(gen, func(*workload.Generator) { close(done) })
		return NewSystem(Config{Protocol: DirectoryRing}, gen).Run()
	}()
	if m.DataRefs == 0 {
		t.Fatal("empty run")
	}
	if !finalized(done) {
		t.Error("the returned metrics keep the machine reachable")
	}
	runtime.KeepAlive(m)
}
