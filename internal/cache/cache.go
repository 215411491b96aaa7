// Package cache implements the per-processor data cache of the study:
// direct-mapped, write-back, write-invalidate, with the three block
// states of the paper's protocols (INV / RS / WE). The default geometry
// is the paper's: 128 Kbyte, 16-byte blocks.
//
// The cache is a passive structure — protocol engines drive all state
// transitions. Lookup/Probe report what an access would do; the engine
// then applies Fill/Invalidate/Downgrade/Upgrade as the protocol
// dictates, so the same cache serves the ring snooping, ring directory,
// SCI linked-list and bus snooping engines.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/coherence"
)

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total data capacity. Default 128 KB.
	SizeBytes int
	// BlockBytes is the block (line) size. Default 16.
	BlockBytes int
}

// DefaultConfig is the paper's cache geometry.
var DefaultConfig = Config{SizeBytes: 128 << 10, BlockBytes: 16}

func (c *Config) fill() {
	if c.SizeBytes == 0 {
		c.SizeBytes = DefaultConfig.SizeBytes
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = DefaultConfig.BlockBytes
	}
}

// minBlockBytes is the smallest supported block: a frame packs its
// state into the two low bits of the block address, which block
// alignment leaves zero only for blocks of at least 4 bytes.
const minBlockBytes = 4

// Validate reports a geometry error, after zero fields take the paper's
// defaults. New panics on the same errors; callers that take a geometry
// from outside the program check it here first.
func (c Config) Validate() error {
	c.fill()
	switch {
	case c.SizeBytes <= 0 || c.BlockBytes <= 0:
		return errors.New("cache: non-positive geometry")
	case c.BlockBytes&(c.BlockBytes-1) != 0:
		return errors.New("cache: block size must be a power of two")
	case c.BlockBytes < minBlockBytes:
		return fmt.Errorf("cache: block size must be at least %d bytes", minBlockBytes)
	case c.SizeBytes%c.BlockBytes != 0:
		return errors.New("cache: size not a multiple of block size")
	}
	if sets := c.SizeBytes / c.BlockBytes; sets&(sets-1) != 0 {
		return errors.New("cache: set count must be a power of two")
	}
	return nil
}

// A frame is one direct-mapped set packed into a word: the resident
// block address with its coherence state in the two low bits (stateMask).
// Block alignment leaves those bits zero, so Lookup and every snoop
// read a set with a single load. An invalidated frame keeps its address
// bits; only the state bits say it is empty.
const stateMask = 3

// Cache is a direct-mapped write-back cache.
type Cache struct {
	cfg        Config
	frames     []uint64
	blockShift uint
	setMask    uint64

	// Statistics.
	Accesses  uint64
	Hits      uint64
	UpgradeRq uint64 // hits in RS needing write permission
}

// New returns a cache with the given geometry (zero fields take the
// paper's defaults). It panics on an invalid geometry (see Validate).
func New(cfg Config) *Cache {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	sets := cfg.SizeBytes / cfg.BlockBytes
	c := &Cache{
		cfg:     cfg,
		frames:  takeFrames(sets),
		setMask: uint64(sets - 1),
	}
	for bs := cfg.BlockBytes; bs > 1; bs >>= 1 {
		c.blockShift++
	}
	return c
}

// framePools recycles the frame arrays of released caches by size
// class: framePools[i] holds arrays of 1<<i sets (Validate makes every
// set count a power of two), so a small cache neither takes nor
// strands a large cache's array. A sync.Pool gives an idle process's
// arrays back to the collector within two cycles.
var framePools [64]sync.Pool // of *[]uint64

// takeFrames returns an all-Invalid frame array of sets frames,
// recycled when a released cache left one of that size.
func takeFrames(sets int) []uint64 {
	if p, _ := framePools[bits.TrailingZeros(uint(sets))].Get().(*[]uint64); p != nil {
		f := *p
		clear(f)
		return f
	}
	return make([]uint64, sets)
}

// Release hands the cache's frame array to the next cache of the same
// set count. The statistics stay readable; the block state is gone, and
// a later Lookup, State or fill panics instead of reading another
// cache's frames. Releasing twice is a no-op.
func (c *Cache) Release() {
	if c.frames == nil {
		return
	}
	f := c.frames
	c.frames = nil
	framePools[bits.TrailingZeros(uint(len(f)))].Put(&f)
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// BlockAddr returns the block-aligned address containing addr.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockBytes) - 1)
}

func (c *Cache) index(block uint64) int {
	return int((block >> c.blockShift) & c.setMask)
}

// frame returns the frame of block's set.
func (c *Cache) frame(block uint64) *uint64 {
	return &c.frames[c.index(block)]
}

// resident returns block's state if frame f holds it, else Invalid:
// f^block is the state alone exactly when the address bits match.
func resident(f, block uint64) coherence.State {
	if d := f ^ block; d <= stateMask {
		return coherence.State(d)
	}
	return coherence.Invalid
}

// Outcome describes what a processor access needs from the coherence
// protocol.
type Outcome uint8

const (
	// Hit: the access completes locally with no protocol action.
	Hit Outcome = iota
	// MissRead: the block must be obtained in RS state.
	MissRead
	// MissWrite: the block must be obtained in WE state.
	MissWrite
	// Upgrade: block present in RS; write permission must be obtained
	// (an "invalidation" in the paper's terminology).
	Upgrade
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case MissRead:
		return "miss-read"
	case MissWrite:
		return "miss-write"
	case Upgrade:
		return "upgrade"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Victim describes a block displaced by a fill.
type Victim struct {
	// Block is the block-aligned address displaced.
	Block uint64
	// Dirty reports whether the victim was write-exclusive and must be
	// written back.
	Dirty bool
	// Valid reports whether there was a victim at all.
	Valid bool
}

// Lookup classifies an access without changing cache state. For hits it
// also performs the RS→WE silent transition check: a store that hits in
// RS is an Upgrade, not a Hit.
func (c *Cache) Lookup(addr uint64, write bool) Outcome {
	c.Accesses++
	block := c.BlockAddr(addr)
	// resident, spelled out so that Lookup stays within the compiler's
	// inlining budget: the frame's state if its address bits match
	// block; anything above stateMask means another block holds the set.
	st := c.frames[c.index(block)] ^ block
	if st == uint64(coherence.Invalid) || st > stateMask {
		if write {
			return MissWrite
		}
		return MissRead
	}
	if write && st == uint64(coherence.ReadShared) {
		c.UpgradeRq++
		return Upgrade
	}
	c.Hits++
	return Hit
}

// State returns the state of the frame currently holding block, or
// Invalid if the block is not resident.
func (c *Cache) State(block uint64) coherence.State {
	return resident(*c.frame(block), block)
}

// Fill installs block in the given state and returns the displaced
// victim, if any. Filling over the same block just updates the state.
func (c *Cache) Fill(block uint64, st coherence.State) Victim {
	if st == coherence.Invalid {
		panic("cache: fill with Invalid state")
	}
	f := c.frame(block)
	var v Victim
	old, prev := *f&^stateMask, coherence.State(*f&stateMask)
	if prev != coherence.Invalid && old != block {
		v = Victim{Block: old, Dirty: prev == coherence.WriteExclusive, Valid: true}
	}
	*f = block | uint64(st)
	return v
}

// Invalidate drops block if resident, returning its previous state.
func (c *Cache) Invalidate(block uint64) coherence.State {
	f := c.frame(block)
	prev := resident(*f, block)
	if prev != coherence.Invalid {
		*f = block
	}
	return prev
}

// Downgrade moves a WE block to RS (remote read miss hitting the dirty
// owner). It reports whether the block was resident in WE.
func (c *Cache) Downgrade(block uint64) bool {
	return c.move(block, coherence.WriteExclusive, coherence.ReadShared)
}

// Upgrade moves an RS block to WE (invalidation acknowledged). It
// reports whether the block was resident in RS.
func (c *Cache) Upgrade(block uint64) bool {
	return c.move(block, coherence.ReadShared, coherence.WriteExclusive)
}

// move changes block's state from one valid state to another, reporting
// whether the block was resident in from.
func (c *Cache) move(block uint64, from, to coherence.State) bool {
	f := c.frame(block)
	if *f != block|uint64(from) {
		return false
	}
	*f = block | uint64(to)
	return true
}

// HitRate returns the fraction of accesses that hit (upgrades count as
// non-hits: the processor blocks on them).
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// Occupancy counts resident blocks per state, for diagnostics.
func (c *Cache) Occupancy() (rs, we int) {
	for _, f := range c.frames {
		switch coherence.State(f & stateMask) {
		case coherence.ReadShared:
			rs++
		case coherence.WriteExclusive:
			we++
		}
	}
	return rs, we
}
