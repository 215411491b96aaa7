package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/hier"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/scilist"
	"repro/internal/sim"
	"repro/internal/workload"
)

// recycleCase is one machine of the recycling tests. The cases differ
// in every pooled dimension: the engine (and so its home store), the
// frame array's size class, the write buffer and tracing.
type recycleCase struct {
	name string
	cfg  Config
}

func recycleCases() []recycleCase {
	small := cache.Config{SizeBytes: 4 << 10}
	wide := cache.Config{BlockBytes: 64}
	traced := obs.Config{SampleEvery: 4, BufferCap: 256, TrackCap: 256}
	return []recycleCase{
		{"snoop-ring", Config{Protocol: SnoopRing}},
		{"directory-ring", Config{Protocol: DirectoryRing}},
		{"sci-ring", Config{Protocol: SCIRing}},
		{"snoop-bus", Config{Protocol: SnoopBus}},
		{"hier-ring", Config{Protocol: HierRing, Clusters: 2}},
		{"snoop-ring 64B", Config{Protocol: SnoopRing, Cache: wide, Ring: ring.Config{BlockBytes: 64}}},
		{"directory-ring 64B", Config{Protocol: DirectoryRing, Cache: wide, Ring: ring.Config{BlockBytes: 64}}},
		{"snoop-bus 4KB", Config{Protocol: SnoopBus, Cache: small}},
		{"sci-ring 4KB", Config{Protocol: SCIRing, Cache: small}},
		{"hier-ring 4KB 64B", Config{Protocol: HierRing, Clusters: 4, Cache: cache.Config{SizeBytes: 4 << 10, BlockBytes: 64}, Ring: ring.Config{BlockBytes: 64}}},
		{"directory-ring write buffer", Config{Protocol: DirectoryRing, NonBlockingStores: true}},
		{"snoop-ring traced", Config{Protocol: SnoopRing, Trace: traced}},
	}
}

// digestRun builds and runs c's machine and returns the sha256 of its
// MetricsSnapshot, followed by that of its trace when it was traced.
func digestRun(t *testing.T, c recycleCase) string {
	cfg := c.cfg
	cfg.Seed, cfg.WarmupDataRefs = 3, 100
	gen := workload.NewGenerator(workload.Config{
		Profile: workload.MustProfile("MP3D", 8), DataRefsPerCPU: 400, Seed: 3})
	m := NewSystem(cfg, gen).Run()
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Error(err)
		return ""
	}
	sum := sha256.Sum256(b)
	d := hex.EncodeToString(sum[:])
	if m.Trace != nil {
		var buf bytes.Buffer
		if err := m.Trace.WriteTrace(&buf); err != nil {
			t.Error(err)
		}
		sum = sha256.Sum256(buf.Bytes())
		d += " " + hex.EncodeToString(sum[:])
	}
	return d
}

// emptyPools drops every recycled machine part: a pooled object
// survives one collection in the pool's victim cache, not two.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// coldDigests runs every case on freshly allocated storage.
func coldDigests(t *testing.T, cases []recycleCase) []string {
	want := make([]string, len(cases))
	for i, c := range cases {
		emptyPools()
		want[i] = digestRun(t, c)
	}
	return want
}

// shuffled is a fixed permutation of 0..n-1.
func shuffled(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := sim.NewRand(9)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// TestRecycledMachinesOrderIndependent: a machine built on a released
// machine's caches, calendar, home stores and page table computes
// exactly what it computes on fresh storage, whichever machines ran
// before it.
func TestRecycledMachinesOrderIndependent(t *testing.T) {
	cases := recycleCases()
	want := coldDigests(t, cases)
	n := len(cases)
	forward, reversed := make([]int, n), make([]int, n)
	for i := range forward {
		forward[i], reversed[i] = i, n-1-i
	}
	for name, order := range map[string][]int{"forward": forward, "reversed": reversed, "shuffled": shuffled(n)} {
		for _, i := range order {
			if got := digestRun(t, cases[i]); got != want[i] {
				t.Errorf("%s order, %s: digest %.12s, on fresh storage %.12s", name, cases[i].name, got, want[i])
			}
		}
	}
}

// TestRecycledMachinesConcurrent runs the shuffled sequence from four
// goroutines at once, so machines hand storage to each other across
// goroutines (run it with -race).
func TestRecycledMachinesConcurrent(t *testing.T) {
	cases := recycleCases()
	want := coldDigests(t, cases)
	order := shuffled(len(cases))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				if got := digestRun(t, cases[i]); got != want[i] {
					t.Errorf("%s: digest %.12s, on fresh storage %.12s", cases[i].name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecycledRunAllocBound is the steady-state guard: once a machine
// of the same shape has run, building and running the next one
// allocates only what is not recycled (processors, rings, banks, the
// generator and the metrics), not its caches, calendar or home store.
// The collector is off so the pools keep what the first run released,
// and one processor keeps the goroutine on one pool shard.
func TestRecycledRunAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops a random quarter of what is put back")
	}
	const bound = 200 << 10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() {
		gen := workload.NewGenerator(workload.Config{
			Profile: workload.MustProfile("MP3D", 16), DataRefsPerCPU: 500, Seed: 1})
		NewSystem(Config{Protocol: SnoopRing, Seed: 1}, gen).Run()
	}
	run()
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > bound {
		t.Fatalf("re-running a 16-CPU machine allocated %d bytes, want <= %d", best, bound)
	}
	t.Logf("re-run: %d bytes", best)
}

// TestRunIsSingleUse: after Run the machine's counters stay readable,
// its block state is gone, and a second Run panics before it touches
// the released storage.
func TestRunIsSingleUse(t *testing.T) {
	gen := func() *workload.Generator {
		return workload.NewGenerator(workload.Config{
			Profile: workload.MustProfile("MP3D", 8), DataRefsPerCPU: 300, Seed: 1})
	}
	type cacher interface{ Cache(node int) *cache.Cache }
	for _, p := range []Protocol{SnoopRing, DirectoryRing, SCIRing, SnoopBus, HierRing} {
		// Small caches, so dirty victims are written back.
		s := NewSystem(Config{Protocol: p, Seed: 1, Cache: cache.Config{SizeBytes: 4 << 10}}, gen())
		m := s.Run()
		k := s.Kernel()
		if k.Fired() != m.EventsFired || k.SlabSize() != m.EventSlab || k.Now() < m.ExecTime {
			t.Errorf("%v: kernel counters after Run: fired %d slab %d now %v; metrics %d %d %v",
				p, k.Fired(), k.SlabSize(), k.Now(), m.EventsFired, m.EventSlab, m.ExecTime)
		}
		e := s.EngineImpl()
		c := e.(cacher).Cache(0)
		var wb uint64
		for node := 0; node < 8; node++ {
			wb += e.WriteBacksOf(node)
		}
		if c.Accesses == 0 || c.Hits == 0 || c.Accesses < c.Hits+c.UpgradeRq || wb == 0 {
			t.Errorf("%v: counters after Run: accesses %d hits %d upgrades %d write-backs %d",
				p, c.Accesses, c.Hits, c.UpgradeRq, wb)
		}
		switch {
		case s.Ring() != nil:
			if s.Ring().Utilization(ring.BlockSlot) <= 0 || s.Ring().Messages(ring.BlockSlot) == 0 {
				t.Errorf("%v: ring statistics lost", p)
			}
		case s.Bus() != nil:
			if s.Bus().Utilization() <= 0 || s.Bus().Tenures(bus.Response) == 0 {
				t.Errorf("%v: bus statistics lost", p)
			}
		default:
			if h := e.(*hier.Engine); h.Txns == 0 || h.GlobalShare() <= 0 {
				t.Errorf("%v: hierarchy statistics lost", p)
			}
		}
		mustPanic(t, p.String()+" Cache(0).State", "", func() { c.State(0) })
		switch d := e.(type) {
		case *directory.Engine:
			mustPanic(t, "directory-ring Directory().Line", "", func() { d.Directory().Line(0) })
		case *scilist.Engine:
			mustPanic(t, "sci-ring Directory().Line", "", func() { d.Directory().Line(0) })
		}
		mustPanic(t, p.String()+" second Run", "core: System.Run called twice", func() { s.Run() })
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", what)
			return
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %v, want %q", what, r, want)
		}
	}()
	f()
}
