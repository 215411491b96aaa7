// Package snoop implements the paper's snooping cache coherence
// protocol for the unidirectional slotted ring (Section 3.1): a
// write-invalidate write-back protocol in which miss and invalidation
// requests are broadcast in probe slots, snooped by every interface as
// they pass, and acknowledged by the owner — the home memory when the
// block's dirty bit is clear, the dirty cache otherwise. Probes are
// removed only by their requester, so no transaction traverses the
// ring more than once and miss latency is independent of node
// positions: the ring behaves as a UMA interconnect.
//
// Timing simplifications, noted in DESIGN.md: the block supplied by a
// dirty owner is assumed to update memory without an extra message
// (home reflection), and responder selection is made at probe insertion
// time — consistent with the paper's own model, which never charges
// extra traffic for reflection.
package snoop

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
)

// CacheSupplyTime is the time for a dirty owner to fetch a block from
// its cache for a cache-to-cache transfer. The paper lumps "the time to
// fetch the block in the remote memory or cache" together, so this
// matches the 140 ns memory bank time.
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
	// Tracer, when non-nil, records coherence transactions as obs
	// spans with phase annotations.
	Tracer *obs.Tracer
}

func (o *Options) fill() {
	if o.PageBytes == 0 {
		o.PageBytes = 4096
	}
}

// Engine is a snooping-protocol coherence engine over a slotted ring.
type Engine struct {
	k      *sim.Kernel
	ring   *ring.Ring
	caches []*cache.Cache
	banks  []*memory.Bank
	home   *memory.HomeMap
	meta   *coherence.Table
	tr     *obs.Tracer
	pool   coherence.Pool

	// WriteBacks counts the block messages sent home on dirty
	// evictions (off the critical path).
	WriteBacks uint64
	wbByNode   []uint64
}

// WriteBacksOf returns the write-backs caused by node's own evictions;
// the core's per-processor warmup gating reads it.
func (e *Engine) WriteBacksOf(node int) uint64 { return e.wbByNode[node] }

// New returns a snooping engine over r.
func New(r *ring.Ring, opts Options) *Engine {
	opts.fill()
	k := r.Kernel()
	n := r.Geo.Nodes
	e := &Engine{
		k:      k,
		ring:   r,
		caches: make([]*cache.Cache, n),
		banks:  make([]*memory.Bank, n),
		home:   homeMapFor(n, opts),
		meta:   coherence.NewTable(),
		tr:     opts.Tracer,
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

// Ring returns the underlying slotted ring (for utilization stats).
func (e *Engine) Ring() *ring.Ring { return e.ring }

// Cache returns node's cache.
func (e *Engine) Cache(node int) *cache.Cache { return e.caches[node] }

// HomeMap returns the page-to-home placement.
func (e *Engine) HomeMap() *memory.HomeMap { return e.home }

// Access performs one data reference for node. done fires at completion
// time with the classification; hits complete synchronously.
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

// fill installs a block, sending a write-back for any dirty victim.
func (e *Engine) fill(node int, block uint64, st coherence.State) {
	if v := e.caches[node].Fill(block, st); v.Valid && v.Dirty {
		e.writeBack(node, v.Block)
	}
}

// Transaction steps: where a txn waits, and what it does on resuming.
const (
	stepLocalRead  coherence.Step = iota // home bank read of a purely local read miss
	stepProbe                            // miss probe passing a snooper, then back at the requester
	stepSupply                           // responder's bank or cache fetch done: ship the block
	stepData                             // block arrived at the requester
	stepInvalidate                       // upgrade probe passing a snooper, then back
	stepWriteBack                        // write-back block arrived at the home
)

// txn is one pooled coherence transaction: a miss, an upgrade or a
// write-back.
type txn struct {
	coherence.Record
	e            *Engine
	node         int
	home         int
	responder    int
	block        uint64
	mi           int32 // the block's meta row
	write        bool
	dirtyRemote  bool
	supplied     bool
	finished     bool
	class        coherence.Txn
	sp           obs.Span
	probeReturn  sim.Time
	blockArrived sim.Time
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
	t.supplied, t.finished = false, false
	t.sp = obs.Span{}
	t.blockArrived = -1
	return t
}

// writeBack returns a dirty block to its home memory, off the critical
// path. The home clears the dirty bit when the block message arrives.
func (e *Engine) writeBack(node int, block uint64) {
	e.WriteBacks++
	e.wbByNode[node]++
	sp := e.tr.Begin(node, e.k.Now())
	m := e.meta.Row(block)
	h := e.home.Home(block)
	if h == node {
		// Local write-back: just the bank write.
		m.Dirty = false
		e.banks[h].Access(nil)
		sp.End(e.k.Now(), coherence.WriteBack)
		return
	}
	t := e.newTxn(node, block, nil)
	t.home = h
	grab, removal := e.ring.SendEvent(node, h, ring.BlockSlot, t.Await(stepWriteBack))
	sp.Mark(obs.PhaseData, grab)
	sp.End(removal, coherence.WriteBack)
	t.Close()
}

// miss services a read or write miss.
func (e *Engine) miss(node int, block uint64, write bool, done coherence.Done) {
	mi := e.meta.Index(block)
	m := e.meta.At(mi)
	h := e.home.Home(block)
	start := e.k.Now()
	t := e.newTxn(node, block, done)
	t.mi = mi
	t.sp = e.tr.Begin(node, start)

	// Clean block homed here (or our own stale ownership racing with a
	// write-back): served from the local bank. A write to a block that
	// other caches may share still needs the invalidating probe, so
	// only reads take the pure-local path.
	dirtyRemote := m.Dirty && m.Owner != node
	if h == node && !dirtyRemote && !write {
		e.banks[h].AccessEvent(t.Await(stepLocalRead))
		return
	}

	t.class = coherence.ReadMissClean
	if write {
		t.class = coherence.WriteMissClean
		if dirtyRemote {
			t.class = coherence.WriteMissDirty
		}
	} else if dirtyRemote {
		t.class = coherence.ReadMissDirty
	}
	t.write, t.dirtyRemote = write, dirtyRemote

	// Responder chosen at insertion: the dirty owner, else the home.
	t.responder = h
	if dirtyRemote {
		t.responder = m.Owner
	}

	// Broadcast the probe. Every interface snoops it as it passes (see
	// the stepProbe visit); the requester removes it after one
	// traversal.
	class := e.ring.Geo.ProbeClassFor(block)
	grab, ret := e.ring.SendEvent(node, ring.Broadcast, class, t.Await(stepProbe))
	t.probeReturn = ret
	t.sp.Mark(obs.PhaseProbeGrab, grab)

	// A write miss on a clean block homed at the requester: the probe
	// still sweeps the ring to invalidate sharers, but the data comes
	// from the local bank, in parallel.
	if t.responder == node {
		t.supplied = true
		e.banks[node].AccessEvent(t.Await(stepData))
	}
}

// Resume runs one step of the transaction.
func (t *txn) Resume(step coherence.Step, visited int, at sim.Time) {
	e := t.e
	switch step {
	case stepLocalRead:
		now := e.k.Now()
		e.fill(t.node, t.block, coherence.ReadShared)
		t.sp.Mark(obs.PhaseData, now)
		t.sp.End(now, coherence.ReadMissClean)
		t.Finish(now, coherence.Result{Txn: coherence.ReadMissClean, Local: true})
	case stepProbe:
		if visited < 0 {
			// Probe removed by the requester after one traversal.
			t.sp.Mark(obs.PhaseAck, at)
			t.finish()
			return
		}
		// Snooper actions at probe pass time: a write probe invalidates
		// all copies, a read probe downgrades the dirty owner.
		if t.write {
			e.caches[visited].Invalidate(t.block)
		} else if visited == t.responder && t.dirtyRemote {
			e.caches[visited].Downgrade(t.block)
		}
		if visited == t.responder && !t.supplied {
			t.supplied = true
			e.respond(t)
		}
	case stepSupply:
		e.ring.SendEvent(t.responder, t.node, ring.BlockSlot, t.Await(stepData))
	case stepData:
		t.blockArrived = e.k.Now()
		t.sp.Mark(obs.PhaseData, t.blockArrived)
		t.finish()
	case stepInvalidate:
		if visited >= 0 {
			e.caches[visited].Invalidate(t.block)
			return
		}
		// Our copy may have been invalidated by a racing write; the
		// transaction then degenerates into a write miss fill.
		if !e.caches[t.node].Upgrade(t.block) {
			e.fill(t.node, t.block, coherence.WriteExclusive)
		}
		m := e.meta.Row(t.block)
		m.Dirty = true
		m.Owner = t.node
		t.sp.Mark(obs.PhaseAck, at)
		t.sp.End(at, coherence.Invalidation)
		t.Finish(at, coherence.Result{Txn: coherence.Invalidation, Traversals: 1})
	case stepWriteBack:
		m := e.meta.Row(t.block)
		if m.Dirty && m.Owner == t.node {
			m.Dirty = false
		}
		e.banks[t.home].Access(nil)
	}
}

// finish completes a miss once its conditions hold: a write when every
// copy is invalidated (probe back around) and the data has arrived; a
// read when the data arrives.
func (t *txn) finish() {
	e := t.e
	if t.finished || t.blockArrived < 0 {
		return
	}
	now := e.k.Now()
	if t.write && now < t.probeReturn {
		return
	}
	t.finished = true
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
		// The owner downgraded and the home copy is refreshed.
		m.Dirty = false
	}
	t.sp.End(now, t.class)
	t.Finish(now, coherence.Result{Txn: t.class, Traversals: 1})
}

// respond fetches the block at the responder (memory bank when it is
// the clean home, cache when it is the dirty owner); stepSupply then
// ships it to the requester in a block slot.
func (e *Engine) respond(t *txn) {
	if t.dirtyRemote {
		e.k.AfterEvent(CacheSupplyTime, t.Await(stepSupply))
	} else {
		e.banks[t.responder].AccessEvent(t.Await(stepSupply))
	}
}

// upgrade services an invalidation request: the requester holds an RS
// copy and broadcasts a probe; every other copy is invalidated as the
// probe sweeps, and the write permission is granted when the probe
// returns — exactly one traversal.
func (e *Engine) upgrade(node int, block uint64, done coherence.Done) {
	class := e.ring.Geo.ProbeClassFor(block)
	t := e.newTxn(node, block, done)
	t.sp = e.tr.Begin(node, e.k.Now())
	grab, _ := e.ring.SendEvent(node, ring.Broadcast, class, t.Await(stepInvalidate))
	t.sp.Mark(obs.PhaseProbeGrab, grab)
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
