package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/coherence"
)

func small() *Cache {
	// 4 sets of 16 bytes: easy conflict construction.
	return New(Config{SizeBytes: 64, BlockBytes: 16})
}

func TestDefaultGeometry(t *testing.T) {
	c := New(Config{})
	if c.Config().SizeBytes != 128<<10 || c.Config().BlockBytes != 16 {
		t.Fatalf("default geometry = %+v, want 128KB/16B", c.Config())
	}
	if len(c.frames) != 8192 {
		t.Fatalf("sets = %d, want 8192", len(c.frames))
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{SizeBytes: -1, BlockBytes: 16},
		{SizeBytes: 64, BlockBytes: 24},  // not power of two
		{SizeBytes: 100, BlockBytes: 16}, // not multiple
		{SizeBytes: 48, BlockBytes: 16},  // 3 sets, not power of two
		{SizeBytes: 64, BlockBytes: 1},   // no room for the state bits
		{SizeBytes: 64, BlockBytes: 2},   // no room for the state bits
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
		if cfg.Validate() == nil {
			t.Errorf("config %+v validated", cfg)
		}
	}
	for _, cfg := range []Config{{}, {BlockBytes: 4}, {SizeBytes: 64, BlockBytes: 64}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}

func TestBlockAddr(t *testing.T) {
	c := small()
	if got := c.BlockAddr(0x123f); got != 0x1230 {
		t.Fatalf("BlockAddr(0x123f) = %#x, want 0x1230", got)
	}
}

func TestColdMiss(t *testing.T) {
	c := small()
	if o := c.Lookup(0x100, false); o != MissRead {
		t.Fatalf("cold read = %v, want miss-read", o)
	}
	if o := c.Lookup(0x100, true); o != MissWrite {
		t.Fatalf("cold write = %v, want miss-write", o)
	}
}

func TestFillThenHit(t *testing.T) {
	c := small()
	v := c.Fill(0x100, coherence.ReadShared)
	if v.Valid {
		t.Fatalf("fill into empty frame produced victim %+v", v)
	}
	if o := c.Lookup(0x104, false); o != Hit {
		t.Fatalf("read after RS fill = %v, want hit", o)
	}
	if o := c.Lookup(0x104, true); o != Upgrade {
		t.Fatalf("write to RS block = %v, want upgrade", o)
	}
	c.Upgrade(0x100)
	if o := c.Lookup(0x108, true); o != Hit {
		t.Fatalf("write to WE block = %v, want hit", o)
	}
}

func TestConflictVictim(t *testing.T) {
	c := small() // 4 sets * 16B → addresses 64 apart conflict
	c.Fill(0x000, coherence.WriteExclusive)
	v := c.Fill(0x040, coherence.ReadShared) // same set 0
	if !v.Valid || v.Block != 0x000 || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty block 0x0", v)
	}
	if c.State(0x000) != coherence.Invalid {
		t.Fatal("displaced block still resident")
	}
	if c.State(0x040) != coherence.ReadShared {
		t.Fatal("new block not resident")
	}
}

func TestCleanVictimNotDirty(t *testing.T) {
	c := small()
	c.Fill(0x000, coherence.ReadShared)
	v := c.Fill(0x040, coherence.ReadShared)
	if !v.Valid || v.Dirty {
		t.Fatalf("victim = %+v, want clean valid victim", v)
	}
}

func TestRefillSameBlockNoVictim(t *testing.T) {
	c := small()
	c.Fill(0x100, coherence.ReadShared)
	v := c.Fill(0x100, coherence.WriteExclusive)
	if v.Valid {
		t.Fatalf("refill produced victim %+v", v)
	}
	if c.State(0x100) != coherence.WriteExclusive {
		t.Fatal("refill did not update state")
	}
}

func TestFillInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Fill(Invalid) did not panic")
		}
	}()
	small().Fill(0x100, coherence.Invalid)
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Fill(0x100, coherence.WriteExclusive)
	if prev := c.Invalidate(0x100); prev != coherence.WriteExclusive {
		t.Fatalf("Invalidate returned %v, want WE", prev)
	}
	if prev := c.Invalidate(0x100); prev != coherence.Invalid {
		t.Fatalf("second Invalidate returned %v, want INV", prev)
	}
	if prev := c.Invalidate(0x999000); prev != coherence.Invalid {
		t.Fatalf("Invalidate of absent block returned %v", prev)
	}
}

func TestDowngradeAndUpgrade(t *testing.T) {
	c := small()
	c.Fill(0x100, coherence.WriteExclusive)
	if !c.Downgrade(0x100) {
		t.Fatal("Downgrade of WE block failed")
	}
	if c.State(0x100) != coherence.ReadShared {
		t.Fatal("state after downgrade not RS")
	}
	if c.Downgrade(0x100) {
		t.Fatal("Downgrade of RS block succeeded")
	}
	if !c.Upgrade(0x100) {
		t.Fatal("Upgrade of RS block failed")
	}
	if c.Upgrade(0x100) {
		t.Fatal("Upgrade of WE block succeeded")
	}
	if c.Upgrade(0xdead00) {
		t.Fatal("Upgrade of absent block succeeded")
	}
}

func TestStatsCounting(t *testing.T) {
	c := small()
	c.Lookup(0x100, false) // miss
	c.Fill(0x100, coherence.ReadShared)
	c.Lookup(0x100, false) // hit
	c.Lookup(0x100, true)  // upgrade
	if c.Accesses != 3 || c.Hits != 1 || c.UpgradeRq != 1 {
		t.Fatalf("accesses/hits/upgrades = %d/%d/%d, want 3/1/1",
			c.Accesses, c.Hits, c.UpgradeRq)
	}
	if hr := c.HitRate(); hr < 0.33 || hr > 0.34 {
		t.Fatalf("HitRate = %v, want 1/3", hr)
	}
}

func TestOccupancy(t *testing.T) {
	c := small()
	c.Fill(0x00, coherence.ReadShared)
	c.Fill(0x10, coherence.WriteExclusive)
	c.Fill(0x20, coherence.WriteExclusive)
	rs, we := c.Occupancy()
	if rs != 1 || we != 2 {
		t.Fatalf("occupancy = %d RS / %d WE, want 1/2", rs, we)
	}
}

func TestLookupNeverMutatesState(t *testing.T) {
	// Property: any sequence of Lookups leaves the cache unchanged.
	c := small()
	c.Fill(0x100, coherence.ReadShared)
	c.Fill(0x210, coherence.WriteExclusive)
	f := func(addr uint32, write bool) bool {
		before0 := c.State(0x100)
		before1 := c.State(0x210)
		c.Lookup(uint64(addr), write)
		return c.State(0x100) == before0 && c.State(0x210) == before1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateTransitionInvariant(t *testing.T) {
	// Property: after any Fill/Invalidate/Upgrade/Downgrade sequence,
	// each frame is in a legal state and tags map to their own set.
	c := small()
	f := func(ops []uint16) bool {
		for _, op := range ops {
			block := uint64(op&0xff) << 4
			switch (op >> 8) % 4 {
			case 0:
				c.Fill(block, coherence.ReadShared)
			case 1:
				c.Fill(block, coherence.WriteExclusive)
			case 2:
				c.Invalidate(block)
			case 3:
				c.Downgrade(block)
			}
		}
		for i, f := range c.frames {
			st := coherence.State(f & stateMask)
			if st > coherence.WriteExclusive {
				return false
			}
			if st != coherence.Invalid && c.index(f&^stateMask) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedFrameRoundTrips drives every frame transition at each
// supported block size, at low addresses and in the generator's highest
// region, and checks the packed word always decodes back to the block
// and state that were stored.
func TestPackedFrameRoundTrips(t *testing.T) {
	for _, bb := range []int{4, 8, 16, 32, 64, 128} {
		for _, base := range []uint64{0, 0x4000_0000_0000, 0x4fff_ffff_0000} {
			c := New(Config{SizeBytes: 16 * bb, BlockBytes: bb})
			span := uint64(16 * bb) // addresses this far apart share a set
			a := base + 3*uint64(bb)
			b := a + span
			if got := c.BlockAddr(a + uint64(bb) - 1); got != a {
				t.Fatalf("bb=%d base=%#x: BlockAddr = %#x, want %#x", bb, base, got, a)
			}
			if v := c.Fill(a, coherence.ReadShared); v.Valid {
				t.Fatalf("bb=%d base=%#x: fill into empty frame gave victim %+v", bb, base, v)
			}
			if o := c.Lookup(a+1, false); o != Hit {
				t.Fatalf("bb=%d base=%#x: read after RS fill = %v", bb, base, o)
			}
			if o := c.Lookup(b, false); o != MissRead {
				t.Fatalf("bb=%d base=%#x: conflicting block = %v, want miss-read", bb, base, o)
			}
			if !c.Upgrade(a) || c.State(a) != coherence.WriteExclusive {
				t.Fatalf("bb=%d base=%#x: upgrade failed", bb, base)
			}
			if o := c.Lookup(a, true); o != Hit {
				t.Fatalf("bb=%d base=%#x: write to WE block = %v", bb, base, o)
			}
			if !c.Downgrade(a) || c.State(a) != coherence.ReadShared {
				t.Fatalf("bb=%d base=%#x: downgrade failed", bb, base)
			}
			c.Upgrade(a)
			if v := c.Fill(b, coherence.ReadShared); !v.Valid || !v.Dirty || v.Block != a {
				t.Fatalf("bb=%d base=%#x: victim = %+v, want dirty %#x", bb, base, v, a)
			}
			if c.State(a) != coherence.Invalid || c.State(b) != coherence.ReadShared {
				t.Fatalf("bb=%d base=%#x: states after conflict fill = %v/%v", bb, base, c.State(a), c.State(b))
			}
			if prev := c.Invalidate(a); prev != coherence.Invalid || c.State(b) != coherence.ReadShared {
				t.Fatalf("bb=%d base=%#x: invalidating an absent block disturbed its set", bb, base)
			}
			if prev := c.Invalidate(b); prev != coherence.ReadShared || c.State(b) != coherence.Invalid {
				t.Fatalf("bb=%d base=%#x: invalidate returned %v", bb, base, prev)
			}
			if c.Upgrade(b) || c.Downgrade(b) {
				t.Fatalf("bb=%d base=%#x: state change on an invalidated frame", bb, base)
			}
			if v := c.Fill(a, coherence.WriteExclusive); v.Valid {
				t.Fatalf("bb=%d base=%#x: fill over an invalidated frame gave victim %+v", bb, base, v)
			}
			if rs, we := c.Occupancy(); rs != 0 || we != 1 {
				t.Fatalf("bb=%d base=%#x: occupancy = %d/%d, want 0/1", bb, base, rs, we)
			}
		}
	}
}
