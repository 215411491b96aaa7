// Package directory implements the paper's full-map directory-based
// protocol for the slotted ring (Section 3.2). Coherence requests are
// point-to-point probes sent to the block's home node, which holds one
// presence bit per node and a dirty bit per block. Clean remote misses
// take exactly one ring traversal (requester → home → requester); when
// the home is not the owner the request is forwarded to the dirty node,
// which costs a second traversal unless the dirty node happens to lie
// on the home → requester arc; write misses and invalidations that find
// the block cached elsewhere make the home multicast an invalidation
// around the ring and await its return before responding — one extra
// traversal. These three latency classes are the paper's Figure 5
// breakdown, and the traversal counts its Table 1.
//
// The home's memory bank serializes all directory processing for its
// blocks (lookup and data fetch are one 140 ns access), which models
// directory contention at the home.
package directory

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
)

// CacheSupplyTime is the dirty owner's cache fetch time for a
// cache-to-cache transfer (see the snoop package for the rationale).
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

// Engine is a full-map directory coherence engine over a slotted ring.
type Engine struct {
	k      *sim.Kernel
	ring   *ring.Ring
	caches []*cache.Cache
	banks  []*memory.Bank
	home   *memory.HomeMap
	dir    *memory.Directory[memory.Line]
	tr     *obs.Tracer
	pool   coherence.Pool

	// WriteBacks counts dirty-eviction block messages.
	WriteBacks uint64
	wbByNode   []uint64
}

// WriteBacksOf returns the write-backs caused by node's own evictions;
// the core's per-processor warmup gating reads it.
func (e *Engine) WriteBacksOf(node int) uint64 { return e.wbByNode[node] }

// New returns a directory engine over r.
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
		dir:    memory.NewDirectory(),
		tr:     opts.Tracer,
	}
	e.wbByNode = make([]uint64, n)
	for i := 0; i < n; i++ {
		e.caches[i] = cache.New(opts.Cache)
		e.banks[i] = memory.NewBank(k, "mem")
	}
	return e
}

// Release hands the caches' frames and the directory to the next
// engine (see core.Engine). The statistics stay readable.
func (e *Engine) Release() {
	for _, c := range e.caches {
		c.Release()
	}
	e.dir.Release()
}

// Ring returns the underlying slotted ring.
func (e *Engine) Ring() *ring.Ring { return e.ring }

// Cache returns node's cache.
func (e *Engine) Cache(node int) *cache.Cache { return e.caches[node] }

// HomeMap returns the page-to-home placement.
func (e *Engine) HomeMap() *memory.HomeMap { return e.home }

// Directory exposes the directory store (tests only).
func (e *Engine) Directory() *memory.Directory[memory.Line] { return e.dir }

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

// fill installs a block, sending a write-back for any dirty victim.
func (e *Engine) fill(node int, block uint64, st coherence.State) {
	if v := e.caches[node].Fill(block, st); v.Valid && v.Dirty {
		if DebugEvict != nil {
			DebugEvict(node, block, v.Block)
		}
		e.writeBack(node, v.Block)
	}
}

// DebugEvict, when non-nil, observes every dirty eviction (filler block
// and victim). Test-only instrumentation.
var DebugEvict func(node int, filler, victim uint64)

// Transaction steps: where a txn waits, and what it does on resuming.
// A multicast's step also fires as a visit at every node it passes.
const (
	stepWBArrive          coherence.Step = iota // write-back block reached the home
	stepWBLand                                  // home bank absorbed the write-back
	stepRequest                                 // miss request reached the remote home
	stepHomeGrant                               // remote home's bank granted the miss
	stepLocalGrant                              // local home's bank granted the miss
	stepOwnerRequest                            // request reached the dirty owner
	stepOwnerFetched                            // owner's cache fetch done: ship the block
	stepFill                                    // block arrived at the requester
	stepLocalMulticast                          // local write miss's invalidation sweep
	stepHomeMulticast                           // remote home's invalidation sweep
	stepUpgradeLocalGrant                       // local home's bank granted the upgrade
	stepUpgradeRequest                          // upgrade request reached the remote home
	stepUpgradeHomeGrant                        // remote home's bank granted the upgrade
	stepUpgradeMulticast                        // upgrade's invalidation sweep, ack to follow
	stepUpgradeDone                             // upgrade complete: sweep back, or ack arrived
)

// txn is one pooled coherence transaction: a miss, an upgrade or a
// write-back.
type txn struct {
	coherence.Record
	e     *Engine
	node  int
	home  int
	owner int
	block uint64
	write bool
	class coherence.Txn
	miss  coherence.MissClass
	trav  int
	sp    obs.Span
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
	t.sp = obs.Span{}
	return t
}

// writeBack returns a dirty block to its home, off the critical path.
func (e *Engine) writeBack(node int, block uint64) {
	e.WriteBacks++
	e.wbByNode[node]++
	sp := e.tr.Begin(node, e.k.Now())
	h := e.home.Home(block)
	t := e.newTxn(node, block, nil)
	t.home = h
	if h == node {
		e.banks[h].AccessEvent(t.Await(stepWBLand))
		sp.End(e.k.Now(), coherence.WriteBack)
		t.Close()
		return
	}
	grab, removal := e.ring.SendEvent(node, h, ring.BlockSlot, t.Await(stepWBArrive))
	sp.Mark(obs.PhaseData, grab)
	sp.End(removal, coherence.WriteBack)
	t.Close()
}

// probe sends a point-to-point probe (request, forward, or ack) in the
// parity slot of block, returning the slot grab time.
func (e *Engine) probe(src, dst int, block uint64, arrived *coherence.Port) sim.Time {
	class := e.ring.Geo.ProbeClassFor(block)
	grab, _ := e.ring.SendEvent(src, dst, class, arrived)
	return grab
}

// multicast sends the home's invalidation sweep: a broadcast probe that
// visits every node (each step invalidates all copies but the
// requester's) and returns after one full traversal. It reports the
// probe slot grab time.
func (e *Engine) multicast(h int, block uint64, port *coherence.Port) sim.Time {
	class := e.ring.Geo.ProbeClassFor(block)
	grab, _ := e.ring.SendEvent(h, ring.Broadcast, class, port)
	return grab
}

// traversals converts a total downstream path length into ring
// traversals (paths always close the loop, so this is exact).
func (e *Engine) traversals(stages int) int {
	t := stages / e.ring.Geo.TotalStages
	if stages%e.ring.Geo.TotalStages != 0 {
		t++
	}
	if t == 0 {
		t = 1
	}
	return t
}

// classify maps a dirty-forward path onto the paper's latency classes.
func classifyDirty(trav int) coherence.MissClass {
	if trav == 1 {
		return coherence.OneCycleDirty
	}
	return coherence.TwoCycle
}

// miss services a read or write miss.
func (e *Engine) miss(node int, block uint64, write bool, done coherence.Done) {
	h := e.home.Home(block)
	t := e.newTxn(node, block, done)
	t.home, t.write = h, write
	t.sp = e.tr.Begin(node, e.k.Now())
	if h == node {
		e.banks[node].AccessEvent(t.Await(stepLocalGrant))
		return
	}
	// Remote home: request probe to h; all decisions are made at the
	// home, serialized by its bank.
	grab := e.probe(node, h, block, t.Await(stepRequest))
	t.sp.Mark(obs.PhaseProbeGrab, grab)
}

// Resume runs one step of the transaction.
func (t *txn) Resume(step coherence.Step, visited int, at sim.Time) {
	e := t.e
	if visited >= 0 {
		// Only multicasts visit: invalidate every copy but the
		// requester's.
		if visited != t.node {
			e.caches[visited].Invalidate(t.block)
		}
		return
	}
	switch step {
	case stepWBArrive:
		e.banks[t.home].AccessEvent(t.Await(stepWBLand))
	case stepWBLand:
		e.dir.Line(t.block).RemoveSharer(t.node) // also clears the dirty bit if owner
	case stepRequest:
		e.banks[t.home].AccessEvent(t.Await(stepHomeGrant))
	case stepHomeGrant:
		// The home's bank grant is the directory protocol's "ack
		// observed" waypoint: the request is now being serviced.
		t.sp.Mark(obs.PhaseAck, e.k.Now())
		e.atHome(t)
	case stepLocalGrant:
		e.localMiss(t)
	case stepOwnerRequest:
		e.ownerSupply(t)
	case stepOwnerFetched:
		e.ring.SendEvent(t.owner, t.node, ring.BlockSlot, t.Await(stepFill))
	case stepFill:
		st := coherence.ReadShared
		if t.write {
			st = coherence.WriteExclusive
		}
		e.fill(t.node, t.block, st)
		t.sp.Mark(obs.PhaseData, at)
		t.sp.End(at, t.class)
		t.Finish(at, coherence.Result{Txn: t.class, Class: t.miss, Traversals: t.trav})
	case stepLocalMulticast:
		e.fill(t.node, t.block, coherence.WriteExclusive)
		// Latency-wise this is one traversal plus the local fetch — the
		// clean-remote-miss class.
		t.sp.Mark(obs.PhaseAck, at)
		t.sp.End(at, coherence.WriteMissClean)
		t.Finish(at, coherence.Result{Txn: coherence.WriteMissClean,
			Class: coherence.OneCycleClean, Traversals: 1})
	case stepHomeMulticast:
		e.ring.SendEvent(t.home, t.node, ring.BlockSlot, t.Await(stepFill))
	case stepUpgradeLocalGrant:
		t.sp.Mark(obs.PhaseAck, e.k.Now())
		ln := e.dir.Line(t.block)
		shared := sharedElsewhere(ln, t.node, t.node)
		ln.SetDirty(t.node)
		if shared {
			t.trav = 1
			grab := e.multicast(t.node, t.block, t.Await(stepUpgradeDone))
			t.sp.Mark(obs.PhaseProbeGrab, grab)
		} else {
			t.finishUpgrade(e.k.Now(), 0)
		}
	case stepUpgradeRequest:
		e.banks[t.home].AccessEvent(t.Await(stepUpgradeHomeGrant))
	case stepUpgradeHomeGrant:
		t.sp.Mark(obs.PhaseAck, e.k.Now())
		h := t.home
		ln := e.dir.Line(t.block)
		shared := sharedElsewhere(ln, t.node, h)
		if DebugUpgrade != nil {
			DebugUpgrade(t.block, ln.NumSharers(), h, t.node, shared)
		}
		e.caches[h].Invalidate(t.block)
		ln.SetDirty(t.node)
		if shared {
			e.multicast(h, t.block, t.Await(stepUpgradeMulticast))
		} else {
			t.trav = 1
			e.probe(h, t.node, t.block, t.Await(stepUpgradeDone))
		}
	case stepUpgradeMulticast:
		t.trav = 2
		e.probe(t.home, t.node, t.block, t.Await(stepUpgradeDone))
	case stepUpgradeDone:
		t.finishUpgrade(at, t.trav)
	}
}

// localMiss handles a miss whose home is the requesting node, once the
// local bank grants it.
func (e *Engine) localMiss(t *txn) {
	node, block, write := t.node, t.block, t.write
	ln := e.dir.Line(block)
	dirtyRemote := ln.Dirty && ln.Owner != node
	switch {
	case dirtyRemote:
		// Request straight to the dirty node; it supplies the block
		// directly back: exactly one traversal (n→o→n).
		t.owner = ln.Owner
		if write {
			ln.SetDirty(node)
		} else {
			ln.Dirty = false
			ln.AddSharer(node)
		}
		t.class = coherence.ReadMissDirty
		if write {
			t.class = coherence.WriteMissDirty
		}
		t.miss, t.trav = coherence.OneCycleDirty, 1
		grab := e.probe(node, t.owner, block, t.Await(stepOwnerRequest))
		t.sp.Mark(obs.PhaseProbeGrab, grab)
	case write && ln.NumSharers() > 0 && !(ln.NumSharers() == 1 && ln.HasSharer(node)):
		// Local write miss, block shared remotely: multicast and wait
		// for the sweep to return before completing.
		ln.SetDirty(node)
		grab := e.multicast(node, block, t.Await(stepLocalMulticast))
		t.sp.Mark(obs.PhaseProbeGrab, grab)
	default:
		// Purely local.
		now := e.k.Now()
		class := coherence.ReadMissClean
		st := coherence.ReadShared
		if write {
			ln.SetDirty(node)
			class, st = coherence.WriteMissClean, coherence.WriteExclusive
		} else {
			ln.AddSharer(node)
		}
		e.fill(node, block, st)
		t.sp.Mark(obs.PhaseData, now)
		t.sp.End(now, class)
		t.Finish(now, coherence.Result{Txn: class, Local: true})
	}
}

// atHome runs the home-node directory actions for a remote miss, at the
// point the home's bank grants the (lookup + fetch) access.
func (e *Engine) atHome(t *txn) {
	g := &e.ring.Geo
	node, h, block, write := t.node, t.home, t.block, t.write
	ln := e.dir.Line(block)
	dirtyRemote := ln.Dirty && ln.Owner != node && ln.Owner != h
	if DebugMiss != nil {
		DebugMiss(block, ln.NumSharers(), ln.Dirty, ln.Owner, node, write)
	}

	switch {
	case dirtyRemote:
		// Forward to the dirty node; it supplies the block to the
		// requester. One extra traversal unless the owner lies on the
		// home→requester arc (Figure 2.b).
		o := ln.Owner
		total := g.DistStages(node, h) + g.DistStages(h, o) + g.DistStages(o, node)
		t.owner = o
		t.trav = e.traversals(total)
		t.miss = classifyDirty(t.trav)
		t.class = coherence.ReadMissDirty
		if write {
			t.class = coherence.WriteMissDirty
			ln.SetDirty(node)
		} else {
			ln.Dirty = false
			ln.AddSharer(node)
		}
		e.probe(h, o, block, t.Await(stepOwnerRequest))

	case write && sharedElsewhere(ln, node, h):
		// Multicast invalidation, then respond: two traversals total.
		// The home's own copy (if any) dies too.
		e.caches[h].Invalidate(block)
		ln.SetDirty(node)
		t.class, t.miss, t.trav = coherence.WriteMissClean, coherence.TwoCycle, 2
		e.multicast(h, block, t.Await(stepHomeMulticast))

	default:
		// Clean (or home-owned): the home supplies directly. If the
		// home's own cache holds it WE, it downgrades/invalidates.
		t.class = coherence.ReadMissClean
		if ln.Dirty && ln.Owner == h {
			t.class = coherence.ReadMissDirty
			if write {
				t.class = coherence.WriteMissDirty
			}
			if write {
				e.caches[h].Invalidate(block)
			} else {
				e.caches[h].Downgrade(block)
			}
		} else if write {
			t.class = coherence.WriteMissClean
			e.caches[h].Invalidate(block)
		}
		if write {
			ln.SetDirty(node)
		} else {
			ln.Dirty = false
			ln.AddSharer(node)
		}
		t.miss, t.trav = coherence.OneCycleClean, 1
		if t.class == coherence.ReadMissDirty || t.class == coherence.WriteMissDirty {
			t.miss = coherence.OneCycleDirty
		}
		e.ring.SendEvent(h, node, ring.BlockSlot, t.Await(stepFill))
	}
}

// sharedElsewhere reports whether ln is cached by anyone other than the
// requester (the home's presence bit counts: its cache copy must be
// invalidated, though that needs no ring traffic).
func sharedElsewhere(ln *memory.Line, requester, home int) bool {
	return ln.HasSharerBesides(requester, home)
}

// ownerSupply has the dirty owner fetch the block from its cache and
// downgrade or invalidate its copy; stepOwnerFetched then ships the
// data to the requester.
func (e *Engine) ownerSupply(t *txn) {
	if t.write {
		e.caches[t.owner].Invalidate(t.block)
	} else {
		e.caches[t.owner].Downgrade(t.block)
	}
	e.k.AfterEvent(CacheSupplyTime, t.Await(stepOwnerFetched))
}

// DebugUpgrade, when non-nil, observes every remote upgrade as the home
// processes it (block, presence population, home, requester, whether
// sharers were found). Test-only instrumentation.
var DebugUpgrade func(block uint64, sharers, home, node int, found bool)

// DebugMiss, when non-nil, observes every remote miss as the home
// processes it. Test-only instrumentation.
var DebugMiss func(block uint64, sharers int, dirty bool, owner, node int, write bool)

// upgrade services an invalidation request: the requester holds RS and
// asks the home for write permission.
func (e *Engine) upgrade(node int, block uint64, done coherence.Done) {
	h := e.home.Home(block)
	t := e.newTxn(node, block, done)
	t.home = h
	t.sp = e.tr.Begin(node, e.k.Now())
	if h == node {
		e.banks[h].AccessEvent(t.Await(stepUpgradeLocalGrant))
		return
	}
	grab := e.probe(node, h, block, t.Await(stepUpgradeRequest))
	t.sp.Mark(obs.PhaseProbeGrab, grab)
}

// finishUpgrade grants the write permission trav traversals after the
// request.
func (t *txn) finishUpgrade(at sim.Time, trav int) {
	if !t.e.caches[t.node].Upgrade(t.block) {
		// Invalidated by a racing writer while our request was in
		// flight; the permission grant still stands per the directory,
		// so install fresh.
		t.e.fill(t.node, t.block, coherence.WriteExclusive)
	}
	t.sp.End(at, coherence.Invalidation)
	t.Finish(at, coherence.Result{Txn: coherence.Invalidation, Traversals: trav, Local: trav == 0})
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
