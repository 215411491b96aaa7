// Package scilist implements an SCI-style linked-list directory
// protocol on the slotted ring, used by the paper's Table 1 to argue
// that a full-map directory dominates the linked-list organization on a
// ring. Each home keeps only a head pointer; sharers are chained
// through per-cache forward pointers. A miss is forwarded from the home
// to the head node, which supplies the data (the home supplies only
// uncached blocks), so even clean cached misses can take two
// traversals. Invalidations walk the sharing list node by node; when
// the list order conflicts with the ring direction, each hop can cost
// most of a traversal — in the worst case a block shared by n nodes
// takes n traversals to invalidate.
//
// Simplification (documented in DESIGN.md): replacement of an RS copy
// silently unlinks the node from the sharing list rather than running
// the SCI rollout handshake; rollout traffic is off the critical path
// and does not affect the traversal distributions Table 1 reports.
package scilist

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/ring"
	"repro/internal/sim"
)

// CacheSupplyTime is the head node's cache fetch time (see snoop).
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

// Engine is a linked-list directory engine over a slotted ring.
type Engine struct {
	k      *sim.Kernel
	ring   *ring.Ring
	caches []*cache.Cache
	banks  []*memory.Bank
	home   *memory.HomeMap
	dir    *memory.Directory[memory.ListLine]
	pool   coherence.Pool

	// WriteBacks counts dirty-eviction block messages.
	WriteBacks uint64
	wbByNode   []uint64
}

// WriteBacksOf returns the write-backs caused by node's own evictions;
// the core's per-processor warmup gating reads it.
func (e *Engine) WriteBacksOf(node int) uint64 { return e.wbByNode[node] }

// New returns a linked-list engine over r.
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
		dir:    memory.NewListDirectory(),
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
func (e *Engine) Directory() *memory.Directory[memory.ListLine] { return e.dir }

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

// Transaction steps: where a txn waits, and what it does on resuming.
const (
	stepWBArrive       coherence.Step = iota // write-back block reached the home
	stepWBLand                               // home bank absorbed the write-back
	stepRequest                              // miss request reached the home
	stepHomeGrant                            // home's bank granted the miss
	stepHeadRequest                          // request forwarded to the list head arrived
	stepHeadFetched                          // head's cache fetch done: ship the block
	stepData                                 // block arrived: the miss completes
	stepWriteData                            // block arrived while the purge may still run
	stepWalk                                 // purge probe reached the next list member
	stepUpgradeRequest                       // upgrade request reached the home
	stepUpgradeGrant                         // home's bank granted the upgrade
	stepUpgradeAck                           // upgrade's final ack reached the requester
)

// txn is one pooled coherence transaction: a miss, an upgrade or a
// write-back.
type txn struct {
	coherence.Record
	e          *Engine
	node       int
	home       int
	head       int
	block      uint64
	write      bool
	upgrade    bool
	wasDirty   bool
	class      coherence.Txn
	pathToHome int
	purgeDist  int
	trav       int
	dataAt     sim.Time
	purgeAt    sim.Time
	// members is the purge chain walked by stepWalk (a reused buffer);
	// walkIdx indexes the member the current probe left from.
	members []int
	walkIdx int
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
	t.node, t.block, t.home = node, block, e.home.Home(block)
	t.write, t.upgrade = false, false
	t.members = t.members[:0]
	return t
}

// fill installs a block; dirty victims write back, clean shared victims
// silently unlink from their sharing list.
func (e *Engine) fill(node int, block uint64, st coherence.State) {
	v := e.caches[node].Fill(block, st)
	if !v.Valid {
		return
	}
	if v.Dirty {
		e.WriteBacks++
		e.wbByNode[node]++
		t := e.newTxn(node, v.Block, nil)
		if t.home == node {
			e.banks[node].AccessEvent(t.Await(stepWBLand))
		} else {
			e.ring.SendEvent(node, t.home, ring.BlockSlot, t.Await(stepWBArrive))
		}
		t.Close()
	} else {
		e.dir.Line(v.Block).RemoveSharer(node)
	}
}

// probe sends a point-to-point probe in the block's parity slot that
// resumes t at step on arrival. A zero-distance hop (the home is itself
// the list head, or adjacent list members coincide) resumes it at once
// without ring traffic.
func (e *Engine) probe(src, dst int, t *txn, step coherence.Step) {
	if src == dst {
		t.Resume(step, -1, e.k.Now())
		return
	}
	e.ring.SendEvent(src, dst, e.ring.Geo.ProbeClassFor(t.block), t.Await(step))
}

// traversals converts a serial path length in stages into ring
// traversals, rounding partial loops up.
func (e *Engine) traversals(stages int) int {
	if stages == 0 {
		return 0
	}
	S := e.ring.Geo.TotalStages
	t := stages / S
	if stages%S != 0 {
		t++
	}
	return t
}

// miss services a read or write miss.
func (e *Engine) miss(node int, block uint64, write bool, done coherence.Done) {
	t := e.newTxn(node, block, done)
	t.write = write
	e.toHome(t, stepRequest, stepHomeGrant)
}

// toHome carries t's request to the home's bank: at once when the
// requester is the home, else after a probe (resuming at request).
func (e *Engine) toHome(t *txn, request, grant coherence.Step) {
	if t.home == t.node {
		t.pathToHome = 0
		e.banks[t.home].AccessEvent(t.Await(grant))
		return
	}
	t.pathToHome = e.ring.Geo.DistStages(t.node, t.home)
	e.probe(t.node, t.home, t, request)
}

// Resume runs one step of the transaction.
func (t *txn) Resume(step coherence.Step, _ int, at sim.Time) {
	e := t.e
	g := &e.ring.Geo
	switch step {
	case stepWBArrive:
		e.banks[t.home].AccessEvent(t.Await(stepWBLand))
	case stepWBLand:
		e.dir.Line(t.block).RemoveSharer(t.node)
	case stepRequest:
		e.banks[t.home].AccessEvent(t.Await(stepHomeGrant))
	case stepHomeGrant:
		e.missAtHome(t)
	case stepHeadRequest:
		if !t.write {
			e.caches[t.head].Downgrade(t.block)
			e.k.AfterEvent(CacheSupplyTime, t.Await(stepHeadFetched))
			return
		}
		e.caches[t.head].Invalidate(t.block)
		e.k.AfterEvent(CacheSupplyTime, t.Await(stepHeadFetched))
		// Purge the remainder of the list serially.
		t.walkIdx = 0
		e.walk(t)
	case stepHeadFetched:
		next := stepData
		if t.write {
			next = stepWriteData
		}
		e.ring.SendEvent(t.head, t.node, ring.BlockSlot, t.Await(next))
	case stepData:
		e.fill(t.node, t.block, fillState(t.write))
		t.Finish(at, coherence.Result{Txn: t.class, Traversals: t.trav, Class: missClass(t.wasDirty, t.trav)})
	case stepWriteData:
		t.dataAt = at
		t.finishWrite(at)
	case stepWalk:
		e.caches[t.members[t.walkIdx+1]].Invalidate(t.block)
		t.walkIdx++
		e.walk(t)
	case stepUpgradeRequest:
		e.banks[t.home].AccessEvent(t.Await(stepUpgradeGrant))
	case stepUpgradeGrant:
		h, node := t.home, t.node
		ln := e.dir.Line(t.block)
		// The purge chain: the home, then the other members in list
		// order.
		t.members = append(t.members[:0], h)
		t.members = ln.AppendList(t.members)
		others := t.members[:1]
		for _, m := range t.members[1:] {
			if m != node {
				others = append(others, m)
			}
		}
		t.members = others
		ln.ClearSharers()
		ln.SetDirty(node)
		if len(t.members) == 1 {
			if h == node {
				t.finishUpgrade(e.k.Now(), 0)
				return
			}
			t.trav = e.traversals(t.pathToHome + g.DistStages(h, node))
			e.probe(h, node, t, stepUpgradeAck)
			return
		}
		// Serial purge: home → first member → ... → tail → ack to the
		// requester.
		t.purgeDist = t.pathToHome + listDistance(g, t.members)
		t.walkIdx = 0
		e.walk(t)
	case stepUpgradeAck:
		t.finishUpgrade(at, t.trav)
	}
}

// missAtHome runs the home's list actions for a miss, at the point its
// bank grants the access.
func (e *Engine) missAtHome(t *txn) {
	g := &e.ring.Geo
	h, node, block, write := t.home, t.node, t.block, t.write
	ln := e.dir.Line(block)
	head := ln.Head
	t.wasDirty = ln.Dirty

	if head < 0 || head == node {
		// Uncached (or our own stale entry): home supplies.
		t.class = coherence.ReadMissClean
		if write {
			t.class = coherence.WriteMissClean
			ln.ClearSharers()
			ln.SetDirty(node)
		} else {
			ln.RemoveSharer(node)
			ln.AddSharer(node)
		}
		if h == node {
			e.fill(node, block, fillState(write))
			t.Finish(e.k.Now(), coherence.Result{Txn: t.class, Local: true})
			return
		}
		t.trav = e.traversals(t.pathToHome + g.DistStages(h, node))
		e.ring.SendEvent(h, node, ring.BlockSlot, t.Await(stepData))
		return
	}

	// Cached: the head services the request.
	t.head = head
	t.class = coherence.ReadMissClean
	if t.wasDirty {
		t.class = coherence.ReadMissDirty
	}
	if write {
		t.class = coherence.WriteMissClean
		if t.wasDirty {
			t.class = coherence.WriteMissDirty
		}
	}
	if !write {
		// Read: requester prepends to the list; a dirty head
		// downgrades.
		ln.Dirty = false
		ln.AddSharer(node)
		t.trav = e.traversals(t.pathToHome + g.DistStages(h, head) + g.DistStages(head, node))
		e.probe(h, head, t, stepHeadRequest)
		return
	}

	// Write: the head supplies data while the purge walks the rest of
	// the list; the miss commits when both are done.
	t.members = ln.AppendList(t.members[:0]) // head first; excludes nobody yet
	ln.ClearSharers()
	ln.SetDirty(node)
	t.dataAt, t.purgeAt = -1, -1
	t.purgeDist = 0
	e.probe(h, head, t, stepHeadRequest)
	t.purgeDist = g.DistStages(h, head) + listDistance(g, t.members)
}

// walk sends the purge probe from members[walkIdx] to the next member,
// or — past the tail — completes the purge: a write miss joins it with
// the data arrival, an upgrade acknowledges the requester.
func (e *Engine) walk(t *txn) {
	if t.walkIdx+1 < len(t.members) {
		e.probe(t.members[t.walkIdx], t.members[t.walkIdx+1], t, stepWalk)
		return
	}
	if !t.upgrade {
		t.purgeAt = e.k.Now()
		t.finishWrite(t.purgeAt)
		return
	}
	tail := t.members[len(t.members)-1]
	if tail == t.node {
		t.finishUpgrade(e.k.Now(), e.traversals(t.purgeDist))
		return
	}
	t.trav = e.traversals(t.purgeDist + e.ring.Geo.DistStages(tail, t.node))
	e.probe(tail, t.node, t, stepUpgradeAck)
}

// finishWrite commits a head-supplied write miss once both the data and
// the purge have completed.
func (t *txn) finishWrite(at sim.Time) {
	if t.dataAt < 0 || t.purgeAt < 0 {
		return
	}
	e := t.e
	e.fill(t.node, t.block, coherence.WriteExclusive)
	total := t.pathToHome + t.purgeDist + e.ring.Geo.DistStages(t.members[len(t.members)-1], t.node)
	trav := e.traversals(total)
	t.Finish(at, coherence.Result{Txn: t.class, Traversals: trav, Class: missClass(t.wasDirty, trav)})
}

// listDistance sums the downstream distances along consecutive list
// members — the serial purge path length.
func listDistance(g *ring.Geometry, members []int) int {
	d := 0
	for i := 0; i+1 < len(members); i++ {
		d += g.DistStages(members[i], members[i+1])
	}
	return d
}

func fillState(write bool) coherence.State {
	if write {
		return coherence.WriteExclusive
	}
	return coherence.ReadShared
}

func missClass(wasDirty bool, trav int) coherence.MissClass {
	switch {
	case trav <= 0:
		return coherence.LocalOrHit
	case trav == 1 && !wasDirty:
		return coherence.OneCycleClean
	case trav == 1:
		return coherence.OneCycleDirty
	default:
		return coherence.TwoCycle
	}
}

// upgrade services an invalidation: the requester holds RS and must
// purge every other list member.
func (e *Engine) upgrade(node int, block uint64, done coherence.Done) {
	t := e.newTxn(node, block, done)
	t.upgrade = true
	e.toHome(t, stepUpgradeRequest, stepUpgradeGrant)
}

// finishUpgrade grants the write permission trav traversals after the
// request.
func (t *txn) finishUpgrade(at sim.Time, trav int) {
	if !t.e.caches[t.node].Upgrade(t.block) {
		t.e.fill(t.node, t.block, coherence.WriteExclusive)
	}
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
