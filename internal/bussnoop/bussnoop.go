// Package bussnoop implements the baseline of Section 4.3: a 3-state
// write-invalidate snooping protocol on a pipelined split-transaction
// bus (FutureBus+-like), with the physical shared memory partitioned
// among the processing nodes exactly as in the ring systems. The
// address tenure of every miss and invalidation is broadcast and
// snooped by all caches; the data returns in a separate response
// tenure, for the paper's minimum of six bus cycles per remote miss
// plus arbitration and the 140 ns memory access.
package bussnoop

import (
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/sim"
)

// CacheSupplyTime is the dirty owner's fetch time for a cache-to-cache
// transfer (see the snoop package for the rationale).
const CacheSupplyTime = memory.BankTime

// Options configures an Engine.
type Options struct {
	// Cache is the per-node cache geometry (zero: paper defaults).
	Cache cache.Config
	// PageBytes is the home-placement granularity; default 4096.
	PageBytes int
	// Seed drives the random page-to-home placement.
	Seed uint64
	// Home, when non-nil, supplies a pre-built page-to-home placement
	// (e.g. one with private-data hints); PageBytes and Seed are then
	// ignored.
	Home *memory.HomeMap
}

func (o *Options) fill() {
	if o.PageBytes == 0 {
		o.PageBytes = 4096
	}
}

// Engine is a snooping coherence engine over a split-transaction bus.
type Engine struct {
	k      *sim.Kernel
	bus    *bus.Bus
	caches []*cache.Cache
	banks  []*memory.Bank
	home   *memory.HomeMap
	meta   *coherence.Table
	pool   coherence.Pool

	// WriteBacks counts dirty-eviction transfers.
	WriteBacks uint64
	wbByNode   []uint64
}

// WriteBacksOf returns the write-backs caused by node's own evictions;
// the core's per-processor warmup gating reads it.
func (e *Engine) WriteBacksOf(node int) uint64 { return e.wbByNode[node] }

// New returns a bus snooping engine over b.
func New(b *bus.Bus, opts Options) *Engine {
	opts.fill()
	k := b.Kernel()
	n := b.Geo.Nodes
	e := &Engine{
		k:      k,
		bus:    b,
		caches: make([]*cache.Cache, n),
		banks:  make([]*memory.Bank, n),
		home:   homeMapFor(n, opts),
		meta:   coherence.NewTable(),
	}
	e.wbByNode = make([]uint64, n)
	for i := 0; i < n; i++ {
		e.caches[i] = cache.New(opts.Cache)
		e.banks[i] = memory.NewBank(k, "mem")
	}
	return e
}

// Release hands the caches' frames and the home store to the next
// engine (see core.Engine). The statistics stay readable.
func (e *Engine) Release() {
	for _, c := range e.caches {
		c.Release()
	}
	e.meta.Release()
}

// Bus returns the underlying split-transaction bus.
func (e *Engine) Bus() *bus.Bus { return e.bus }

// Cache returns node's cache.
func (e *Engine) Cache(node int) *cache.Cache { return e.caches[node] }

// HomeMap returns the page-to-home placement.
func (e *Engine) HomeMap() *memory.HomeMap { return e.home }

// Access performs one data reference for node; done fires at completion.
func (e *Engine) Access(node int, addr uint64, write bool, done coherence.Done) {
	c := e.caches[node]
	block := c.BlockAddr(addr)
	switch c.Lookup(addr, write) {
	case cache.Hit:
		done(e.k.Now(), coherence.Result{Hit: true})
	case cache.MissRead:
		e.miss(node, block, false, done)
	case cache.MissWrite:
		e.miss(node, block, true, done)
	case cache.Upgrade:
		e.upgrade(node, block, done)
	}
}

// fill installs a block, transferring any dirty victim home.
func (e *Engine) fill(node int, block uint64, st coherence.State) {
	if v := e.caches[node].Fill(block, st); v.Valid && v.Dirty {
		e.writeBack(node, v.Block)
	}
}

// Transaction steps: where a txn waits, and what it does on resuming.
const (
	stepWriteBack coherence.Step = iota // write-back tenure ended: memory takes the block
	stepLocalRead                       // home bank read of a purely local read miss
	stepRequest                         // miss address tenure: snooped, then ended
	stepFetched                         // responder's bank or cache fetch done
	stepResponse                        // data tenure ended: the miss completes
	stepUpgrade                         // upgrade address tenure: snooped, then ended
)

// txn is one pooled coherence transaction: a miss, an upgrade or a
// write-back.
type txn struct {
	coherence.Record
	e           *Engine
	node        int
	home        int
	responder   int
	block       uint64
	mi          int32 // the block's meta row
	write       bool
	dirtyRemote bool
	class       coherence.Txn
}

// newTxn opens a transaction for node on block; done is nil for
// write-backs.
func (e *Engine) newTxn(node int, block uint64, done coherence.Done) *txn {
	t, _ := e.pool.Get().(*txn)
	if t == nil {
		t = &txn{e: e}
		t.Bind(t, &e.pool)
	}
	t.Open(done)
	t.node, t.block = node, block
	return t
}

// writeBack moves a dirty block home, off the critical path.
func (e *Engine) writeBack(node int, block uint64) {
	e.WriteBacks++
	e.wbByNode[node]++
	h := e.home.Home(block)
	if h == node {
		e.land(node, h, block)
		return
	}
	t := e.newTxn(node, block, nil)
	t.home = h
	e.bus.TransactEvent(node, bus.WriteBack, t.Await(stepWriteBack))
	t.Close()
}

// land absorbs a write-back at home h: the dirty bit clears if node
// still owns the block, and the bank takes the write.
func (e *Engine) land(node, h int, block uint64) {
	m := e.meta.Row(block)
	if m.Dirty && m.Owner == node {
		m.Dirty = false
	}
	e.banks[h].Access(nil)
}

// miss services a read or write miss.
func (e *Engine) miss(node int, block uint64, write bool, done coherence.Done) {
	mi := e.meta.Index(block)
	m := e.meta.At(mi)
	h := e.home.Home(block)
	dirtyRemote := m.Dirty && m.Owner != node
	t := e.newTxn(node, block, done)
	t.mi = mi

	// A read miss on a clean block homed here never touches the bus.
	if h == node && !dirtyRemote && !write {
		e.banks[h].AccessEvent(t.Await(stepLocalRead))
		return
	}

	t.class = coherence.ReadMissClean
	switch {
	case write && dirtyRemote:
		t.class = coherence.WriteMissDirty
	case write:
		t.class = coherence.WriteMissClean
	case dirtyRemote:
		t.class = coherence.ReadMissDirty
	}
	t.responder = h
	if dirtyRemote {
		t.responder = m.Owner
	}
	t.write, t.dirtyRemote = write, dirtyRemote

	// Address tenure: broadcast and snooped.
	e.bus.TransactEvent(node, bus.Request, t.Await(stepRequest))
}

// Resume runs one step of the transaction.
func (t *txn) Resume(step coherence.Step, snooper int, at sim.Time) {
	e := t.e
	switch step {
	case stepWriteBack:
		e.land(t.node, t.home, t.block)
	case stepLocalRead:
		e.fill(t.node, t.block, coherence.ReadShared)
		t.Finish(e.k.Now(), coherence.Result{Txn: coherence.ReadMissClean, Local: true})
	case stepRequest:
		if snooper >= 0 {
			if t.write {
				e.caches[snooper].Invalidate(t.block)
			} else if snooper == t.responder && t.dirtyRemote {
				e.caches[snooper].Downgrade(t.block)
			}
			return
		}
		// Fetch at the responder, then the data tenure.
		if t.dirtyRemote {
			e.k.AfterEvent(CacheSupplyTime, t.Await(stepFetched))
		} else {
			e.banks[t.responder].AccessEvent(t.Await(stepFetched))
		}
	case stepFetched:
		e.bus.TransactEvent(t.responder, bus.Response, t.Await(stepResponse))
	case stepResponse:
		st := coherence.ReadShared
		if t.write {
			st = coherence.WriteExclusive
		}
		e.fill(t.node, t.block, st)
		m := e.meta.At(t.mi)
		if t.write {
			m.Dirty = true
			m.Owner = t.node
		} else if t.dirtyRemote {
			m.Dirty = false
		}
		t.Finish(at, coherence.Result{Txn: t.class})
	case stepUpgrade:
		if snooper >= 0 {
			e.caches[snooper].Invalidate(t.block)
			return
		}
		if !e.caches[t.node].Upgrade(t.block) {
			e.fill(t.node, t.block, coherence.WriteExclusive)
		}
		m := e.meta.Row(t.block)
		m.Dirty = true
		m.Owner = t.node
		t.Finish(at, coherence.Result{Txn: coherence.Invalidation})
	}
}

// upgrade services an invalidation: the address tenure alone grants
// write permission once every snooper has seen it.
func (e *Engine) upgrade(node int, block uint64, done coherence.Done) {
	t := e.newTxn(node, block, done)
	e.bus.TransactEvent(node, bus.Request, t.Await(stepUpgrade))
}

// homeMapFor returns the configured home map, or builds the default
// seeded-random page placement.
func homeMapFor(n int, opts Options) *memory.HomeMap {
	if opts.Home != nil {
		return opts.Home
	}
	return memory.NewHomeMap(n, opts.PageBytes, sim.NewRand(opts.Seed))
}

// HasBlock reports whether node currently caches the block containing
// addr in a readable state (RS or WE). The core's write-buffer model
// uses it to decide whether a load can bypass an outstanding store.
func (e *Engine) HasBlock(node int, addr uint64) bool {
	c := e.caches[node]
	return c.State(c.BlockAddr(addr)) != coherence.Invalid
}
