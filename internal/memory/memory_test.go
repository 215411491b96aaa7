package memory

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
)

func TestHomeMapStablePlacement(t *testing.T) {
	h := NewHomeMap(16, 4096, sim.NewRand(1))
	a := h.Home(0x12345)
	for i := 0; i < 10; i++ {
		if h.Home(0x12345) != a {
			t.Fatal("home placement not stable")
		}
	}
	// Same page, different offset: same home.
	if h.Home(0x12345^0xff) != a {
		t.Fatal("same-page addresses got different homes")
	}
}

func TestHomeMapSpread(t *testing.T) {
	h := NewHomeMap(8, 4096, sim.NewRand(7))
	counts := make([]int, 8)
	for p := uint64(0); p < 800; p++ {
		counts[h.Home(p*4096)]++
	}
	for n, c := range counts {
		if c < 60 || c > 140 {
			t.Fatalf("node %d got %d/800 pages, want ~100", n, c)
		}
	}
}

func TestHomeMapRoundRobinFallback(t *testing.T) {
	h := NewHomeMap(4, 4096, nil)
	for p := uint64(0); p < 16; p++ {
		if got := h.Home(p * 4096); got != int(p%4) {
			t.Fatalf("page %d home = %d, want %d", p, got, p%4)
		}
	}
}

func TestHomeMapPlace(t *testing.T) {
	h := NewHomeMap(8, 4096, sim.NewRand(3))
	h.Place(0x8000, 5)
	if h.Home(0x8abc&^0xfff|0x8000) != 5 {
		// address in the placed page
	}
	if got := h.Home(0x8010); got != 5 {
		t.Fatalf("placed page home = %d, want 5", got)
	}
}

func TestHomeMapValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHomeMap(0, 4096, nil) },
		func() { NewHomeMap(4, 1000, nil) },
		func() { NewHomeMap(4, 4096, nil).Place(0, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid input did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestDirectoryLineLifecycle(t *testing.T) {
	d := NewDirectory()
	ln := d.Line(0x100)
	if ln.Dirty || ln.NumSharers() != 0 {
		t.Fatalf("fresh line not clean/uncached: %+v", ln)
	}
	if d.Line(0x100) != ln {
		t.Fatal("Line not memoized")
	}
	ld := NewListDirectory()
	ll := ld.Line(0x100)
	if ll.Dirty || ll.NumSharers() != 0 || ll.Head != -1 {
		t.Fatalf("fresh list line not clean/uncached: %+v", ll)
	}
	if ld.Line(0x100) != ll {
		t.Fatal("list Line not memoized")
	}
	// Records come out of shared chunks; every one starts fresh and
	// keeps its address as more blocks are touched.
	for b := uint64(0); b < 3*lineChunkSize; b++ {
		if fresh := ld.Line(b << 4); b > 0 && fresh.Head != -1 {
			t.Fatalf("record %d not fresh: head %d", b, fresh.Head)
		}
	}
	if ld.Line(0x100) != ll {
		t.Fatal("record moved as the directory grew")
	}
}

// TestLineFootprint guards the full-map record's size: presence, owner
// and dirty bit only, with the sharing list kept in ListLine.
func TestLineFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Line{}); sz > 24 {
		t.Fatalf("sizeof(Line) = %d, want <= 24", sz)
	}
}

// TestFullMapSharers covers the full-map record's presence, dirty and
// owner transitions without any list.
func TestFullMapSharers(t *testing.T) {
	ln := NewDirectory().Line(0)
	ln.AddSharer(3)
	ln.AddSharer(7)
	ln.AddSharer(3)
	if ln.NumSharers() != 2 || !ln.HasSharer(3) || !ln.HasSharer(7) {
		t.Fatalf("presence after adds: %+v", ln)
	}
	ln.RemoveSharer(5) // absent: no-op
	ln.SetDirty(6)
	if !ln.Dirty || ln.Owner != 6 || ln.NumSharers() != 1 || !ln.HasSharer(6) {
		t.Fatalf("SetDirty(6) left %+v", ln)
	}
	ln.RemoveSharer(6)
	if ln.Dirty || ln.NumSharers() != 0 {
		t.Fatalf("owner removal left %+v", ln)
	}
	ln.SetDirty(2)
	ln.ClearSharers()
	if ln.Dirty || ln.NumSharers() != 0 {
		t.Fatalf("ClearSharers left %+v", ln)
	}
}

func TestSharerSetOperations(t *testing.T) {
	d := NewListDirectory()
	ln := d.Line(0)
	ln.AddSharer(3)
	ln.AddSharer(7)
	ln.AddSharer(3) // idempotent
	if ln.NumSharers() != 2 {
		t.Fatalf("NumSharers = %d, want 2", ln.NumSharers())
	}
	if !ln.HasSharer(3) || !ln.HasSharer(7) || ln.HasSharer(5) {
		t.Fatal("HasSharer wrong")
	}
	if !ln.HasSharerBesides(3, 5) || ln.HasSharerBesides(3, 7) || ln.HasSharerBesides(7, 3) {
		t.Fatal("HasSharerBesides wrong")
	}
	if buf := ln.AppendList([]int{42}); len(buf) != 3 || buf[0] != 42 || buf[1] != 7 || buf[2] != 3 {
		t.Fatalf("AppendList = %v, want [42 7 3]", buf)
	}
	ln.RemoveSharer(3)
	if ln.HasSharer(3) || ln.NumSharers() != 1 {
		t.Fatal("RemoveSharer failed")
	}
	ln.RemoveSharer(42) // absent: no-op
}

func TestSCIListOrder(t *testing.T) {
	ln := NewListDirectory().Line(0)
	ln.AddSharer(2)
	ln.AddSharer(5)
	ln.AddSharer(9)
	// SCI prepends: head is the most recent requester.
	got := ln.AppendList(nil)
	want := []int{9, 5, 2}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("AppendList = %v, want %v", got, want)
	}
	// Removing the middle keeps the chain intact.
	ln.RemoveSharer(5)
	got = ln.AppendList(nil)
	if len(got) != 2 || got[0] != 9 || got[1] != 2 {
		t.Fatalf("AppendList after middle removal = %v, want [9 2]", got)
	}
	// Removing the head advances the head pointer.
	ln.RemoveSharer(9)
	if ln.Head != 2 {
		t.Fatalf("Head = %d after head removal, want 2", ln.Head)
	}
}

func TestSetDirtyCollapses(t *testing.T) {
	ln := NewListDirectory().Line(0)
	ln.AddSharer(1)
	ln.AddSharer(2)
	ln.SetDirty(6)
	if !ln.Dirty || ln.Owner != 6 {
		t.Fatalf("dirty/owner = %v/%d, want true/6", ln.Dirty, ln.Owner)
	}
	if ln.NumSharers() != 1 || !ln.HasSharer(6) {
		t.Fatal("SetDirty did not collapse presence to owner")
	}
	if lst := ln.AppendList(nil); len(lst) != 1 || lst[0] != 6 {
		t.Fatalf("AppendList = %v, want [6]", lst)
	}
	// Removing the owner clears dirty.
	ln.RemoveSharer(6)
	if ln.Dirty {
		t.Fatal("dirty bit survived owner removal")
	}
}

func TestClearSharers(t *testing.T) {
	ln := NewListDirectory().Line(0)
	ln.SetDirty(3)
	ln.ClearSharers()
	if ln.Dirty || ln.NumSharers() != 0 || ln.Head != -1 || len(ln.AppendList(nil)) != 0 {
		t.Fatalf("ClearSharers left state: %+v", ln)
	}
}

func TestSharerRangeValidation(t *testing.T) {
	for _, add := range []func(int){NewDirectory().Line(0).AddSharer, NewListDirectory().Line(0).AddSharer} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("AddSharer(64) did not panic")
				}
			}()
			add(64)
		}()
	}
}

func TestListMatchesPresenceInvariant(t *testing.T) {
	// Property: the SCI list and the full-map presence vector always
	// contain exactly the same nodes, in any add/remove interleaving.
	f := func(ops []uint16) bool {
		ln := NewListDirectory().Line(0)
		for _, op := range ops {
			node := int(op % 64)
			if (op>>8)%2 == 0 {
				ln.AddSharer(node)
			} else {
				ln.RemoveSharer(node)
			}
		}
		list := ln.AppendList(nil)
		if len(list) != ln.NumSharers() {
			return false
		}
		for _, n := range list {
			if !ln.HasSharer(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBankSerializesAccesses(t *testing.T) {
	k := sim.NewKernel()
	b := NewBank(k, "mem0")
	var done []sim.Time
	k.At(0, func() {
		b.Access(func() { done = append(done, k.Now()) })
		b.Access(func() { done = append(done, k.Now()) })
	})
	k.Run()
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2", len(done))
	}
	if done[0] != BankTime || done[1] != 2*BankTime {
		t.Fatalf("completion times = %v, want [140ns 280ns]", done)
	}
	if b.MeanWait() != BankTime/2 {
		t.Fatalf("MeanWait = %v, want 70ns", b.MeanWait())
	}
}
