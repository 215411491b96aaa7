// Package hier implements the hierarchical-ring extension the paper
// points at in its related work (Section 5): machines like Toronto's
// Hector and the Kendall Square KSR1 build large systems from a
// two-level hierarchy of unidirectional slotted rings — clusters of
// processors on fast local rings, joined by inter-ring interfaces
// (IRIs) on a global ring — with coherence maintained by hierarchical
// snooping.
//
// Requests circulate the local ring first; the IRI, which keeps a
// summary of which clusters hold copies (the role of the KSR1's
// ring directory), forwards them onto the global ring only when a
// remote cluster must participate. Cluster-local sharing therefore
// pays only the small local round trip, while inter-cluster
// transactions pay local + global + local — the trade the extension
// experiment quantifies against the paper's flat 64-node ring.
package hier

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/ring"
	"repro/internal/sim"
)

// CacheSupplyTime matches the flat engines' remote fetch time.
const CacheSupplyTime = memory.BankTime

// Options configures a hierarchical engine.
type Options struct {
	// Clusters is the number of local rings; the node count must be an
	// exact multiple.
	Clusters int
	// Ring is the physical configuration shared by the local rings and
	// the global ring (clock, width, block size, slot mix).
	Ring ring.Config
	// Cache is the per-node cache geometry (zero: paper defaults).
	Cache cache.Config
	// PageBytes is the home-placement granularity; default 4096.
	PageBytes int
	// Seed drives random page placement.
	Seed uint64
	// Home, when non-nil, supplies a pre-built placement.
	Home *memory.HomeMap
}

// Validate reports why nodes processors cannot form the configured
// hierarchy: the clusters must split the nodes evenly and the ring
// configuration must be valid. New panics on the same errors.
func (o Options) Validate(nodes int) error {
	if o.Clusters <= 1 {
		return errors.New("hier: need at least two clusters")
	}
	if nodes%o.Clusters != 0 {
		return fmt.Errorf("hier: %d nodes not divisible into %d clusters", nodes, o.Clusters)
	}
	rc := o.Ring
	rc.Nodes = o.Clusters
	return rc.Validate()
}

// copiesPool recycles released engines' copy summaries.
var copiesPool sync.Pool // of *[]int32

// Engine is a hierarchical snooping coherence engine.
type Engine struct {
	k        *sim.Kernel
	nodes    int
	clusters int
	perClus  int
	global   *ring.Ring
	locals   []*ring.Ring
	caches   []*cache.Cache
	banks    []*memory.Bank
	home     *memory.HomeMap
	meta     *coherence.Table
	// copies[i*clusters+c] counts the cached copies of meta row i's
	// block in cluster c (the IRIs' summary).
	copies    []int32
	pool      coherence.Pool
	sweepFree []*sweep

	// WriteBacks counts dirty-eviction transfers.
	WriteBacks uint64
	wbByNode   []uint64
	// Txns counts coherence transactions (misses and upgrades);
	// GlobalTxns the subset that crossed the global ring. Both span the
	// whole run.
	Txns       uint64
	GlobalTxns uint64
}

// New returns a hierarchical engine for nodes processors in
// opts.Clusters clusters, attached to k.
func New(k *sim.Kernel, nodes int, opts Options) *Engine {
	if err := opts.Validate(nodes); err != nil {
		panic(err.Error())
	}
	if opts.PageBytes == 0 {
		opts.PageBytes = 4096
	}
	per := nodes / opts.Clusters
	e := &Engine{
		k:        k,
		nodes:    nodes,
		clusters: opts.Clusters,
		perClus:  per,
		caches:   make([]*cache.Cache, nodes),
		banks:    make([]*memory.Bank, nodes),
		wbByNode: make([]uint64, nodes),
		meta:     coherence.NewTable(),
	}
	if p, _ := copiesPool.Get().(*[]int32); p != nil {
		e.copies = *p
	}
	gc := opts.Ring
	gc.Nodes = opts.Clusters
	e.global = ring.New(k, gc)
	e.locals = make([]*ring.Ring, opts.Clusters)
	for c := range e.locals {
		lc := opts.Ring
		lc.Nodes = per + 1 // the extra interface is the IRI
		e.locals[c] = ring.New(k, lc)
	}
	if opts.Home != nil {
		e.home = opts.Home
	} else {
		e.home = memory.NewHomeMap(nodes, opts.PageBytes, sim.NewRand(opts.Seed))
	}
	for i := 0; i < nodes; i++ {
		e.caches[i] = cache.New(opts.Cache)
		e.banks[i] = memory.NewBank(k, "mem")
	}
	return e
}

// Release hands the caches' frames, the home store and the copy
// summary to the next engine (see core.Engine). The statistics, Txns
// and GlobalShare included, stay readable.
func (e *Engine) Release() {
	for _, c := range e.caches {
		c.Release()
	}
	e.meta.Release()
	if e.copies != nil {
		p := e.copies[:0]
		copiesPool.Put(&p)
		e.copies = nil
	}
}

// cluster returns node n's cluster; local its position on that ring.
func (e *Engine) cluster(n int) int { return n / e.perClus }
func (e *Engine) local(n int) int   { return n % e.perClus }

// iri is the IRI's interface position on every local ring.
func (e *Engine) iri() int { return e.perClus }

// Clusters returns the cluster count.
func (e *Engine) Clusters() int { return e.clusters }

// GlobalRing returns the inter-cluster ring.
func (e *Engine) GlobalRing() *ring.Ring { return e.global }

// LocalRing returns cluster c's ring.
func (e *Engine) LocalRing(c int) *ring.Ring { return e.locals[c] }

// Cache returns node's cache.
func (e *Engine) Cache(node int) *cache.Cache { return e.caches[node] }

// HomeMap returns the page placement.
func (e *Engine) HomeMap() *memory.HomeMap { return e.home }

// NetworkUtilization reports the slot utilization averaged over every
// ring (local rings and global), weighted by slot count.
func (e *Engine) NetworkUtilization() float64 {
	var num, den float64
	add := func(r *ring.Ring) {
		n := float64(r.Geo.NumSlots())
		num += r.OverallUtilization() * n
		den += n
	}
	add(e.global)
	for _, r := range e.locals {
		add(r)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// ResetNetStats restarts every ring's statistics window.
func (e *Engine) ResetNetStats() {
	e.global.ResetStats()
	for _, r := range e.locals {
		r.ResetStats()
	}
}

// GlobalShare reports the fraction of coherence transactions that
// crossed the global ring, over the whole run.
func (e *Engine) GlobalShare() float64 {
	if e.Txns == 0 {
		return 0
	}
	return float64(e.GlobalTxns) / float64(e.Txns)
}

// HasBlock implements the core engine probe.
func (e *Engine) HasBlock(node int, addr uint64) bool {
	c := e.caches[node]
	return c.State(c.BlockAddr(addr)) != coherence.Invalid
}

// row returns block's meta row index, sizing its copy summary on first
// touch.
func (e *Engine) row(block uint64) int32 {
	i := e.meta.Index(block)
	if need := (int(i) + 1) * e.clusters; len(e.copies) < need {
		e.copies = append(e.copies, make([]int32, need-len(e.copies))...)
	}
	return i
}

// copiesOf returns row i's per-cluster copy counts; the slice is valid
// until the next row call that adds a block.
func (e *Engine) copiesOf(i int32) []int32 {
	c := e.clusters
	return e.copies[int(i)*c : (int(i)+1)*c]
}

// remoteCopies reports whether any cluster other than c holds a copy.
func remoteCopies(copies []int32, c int) bool {
	for i, n := range copies {
		if i != c && n > 0 {
			return true
		}
	}
	return false
}

// Access implements the core engine interface.
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

// invalidate drops node's copy and maintains the cluster summary.
func (e *Engine) invalidate(node int, block uint64) {
	if e.caches[node].Invalidate(block) != coherence.Invalid {
		cp := e.copiesOf(e.row(block))
		if c := e.cluster(node); cp[c] > 0 {
			cp[c]--
		}
	}
}

// fill installs a block, maintaining the summary and writing back any
// dirty victim.
func (e *Engine) fill(node int, block uint64, st coherence.State) {
	v := e.caches[node].Fill(block, st)
	e.copiesOf(e.row(block))[e.cluster(node)]++
	if !v.Valid {
		return
	}
	vcp := e.copiesOf(e.row(v.Block))
	if c := e.cluster(node); vcp[c] > 0 {
		vcp[c]--
	}
	if v.Dirty {
		e.writeBack(node, v.Block)
	}
}

// WriteBacksOf returns the write-backs caused by node's own evictions;
// the core's per-processor warmup gating reads it.
func (e *Engine) WriteBacksOf(node int) uint64 { return e.wbByNode[node] }

// Transaction steps: where a txn waits, and what it does on resuming.
const (
	stepPathIRI     coherence.Step = iota // path's first leg reached the source cluster's IRI
	stepPathGlobal                        // path's global leg reached the destination IRI
	stepWBLand                            // write-back block reached the home
	stepLocalMiss                         // home bank read of a purely local miss
	stepProbed                            // miss probe reached the responder
	stepFetched                           // responder's bank or cache fetch done: ship the block
	stepArrive                            // data arrived: one branch of the join
	stepToIRI                             // write's invalidation reached the local IRI
	stepGlobalSweep                       // global invalidation passing an IRI, then back
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
	upgrade     bool
	dirtyRemote bool
	class       coherence.Txn
	trav        int
	// The route of the one multi-leg message in flight: a, b and the
	// slot class, and the step that resumes at b.
	pathA, pathB int
	pathClass    ring.SlotClass
	pathDone     coherence.Step
	// Join: data arrival plus (for writes) every invalidation sweep.
	// The transaction completes at the latest arrival once registration
	// is sealed and nothing is outstanding.
	join   int
	sealed bool
	fired  bool
	latest sim.Time
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
	t.write, t.upgrade = false, false
	t.join, t.sealed, t.fired, t.latest = 0, false, false, 0
	return t
}

// writeBack returns a dirty block to its home, off the critical path.
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
	e.sendPath(t, node, h, ring.BlockSlot, stepWBLand)
	t.Close()
}

// land absorbs a write-back at home h: the dirty bit clears if node
// still owns the block, and the bank takes the write.
func (e *Engine) land(node, h int, block uint64) {
	m := e.meta.At(e.row(block))
	if m.Dirty && m.Owner == node {
		m.Dirty = false
	}
	e.banks[h].Access(nil)
}

// sendPath routes a point-to-point message of the slot class from node
// a to node b through up to three ring legs (local → global → local),
// resuming t at done when it arrives.
func (e *Engine) sendPath(t *txn, a, b int, class ring.SlotClass, done coherence.Step) {
	ca, cb := e.cluster(a), e.cluster(b)
	if ca == cb {
		e.locals[ca].SendEvent(e.local(a), e.local(b), class, t.Await(done))
		return
	}
	t.pathA, t.pathB, t.pathClass, t.pathDone = a, b, class, done
	e.locals[ca].SendEvent(e.local(a), e.iri(), class, t.Await(stepPathIRI))
}

// DebugGlobal, when non-nil, observes each miss's routing decision.
// Test-only instrumentation.
var DebugGlobal func(block uint64, global, remoteResponder, dirty, write bool)

// miss services a read or write miss.
func (e *Engine) miss(node int, block uint64, write bool, done coherence.Done) {
	mi := e.row(block)
	m := e.meta.At(mi)
	cp := e.copiesOf(mi)
	h := e.home.Home(block)
	cn := e.cluster(node)
	dirtyRemote := m.Dirty && m.Owner != node
	t := e.newTxn(node, block, done)
	t.mi, t.write, t.dirtyRemote = mi, write, dirtyRemote

	// Pure local: clean block homed here, and (for writes) no copies
	// anywhere else per the IRI summary.
	soleCopies := !remoteCopies(cp, cn) && cp[cn] == 0
	if h == node && !dirtyRemote && (!write || soleCopies) {
		e.banks[h].AccessEvent(t.Await(stepLocalMiss))
		return
	}

	t.responder = h
	if dirtyRemote {
		t.responder = m.Owner
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

	needGlobal := e.cluster(t.responder) != cn || (write && remoteCopies(cp, cn))
	t.trav = 1
	e.Txns++
	if needGlobal {
		t.trav = 2
		e.GlobalTxns++
	}
	if DebugGlobal != nil {
		DebugGlobal(block, needGlobal, e.cluster(t.responder) != cn, dirtyRemote, write)
	}

	if write {
		e.sweeps(t)
	}

	// Data path.
	t.join++
	if t.responder == node {
		// Write miss on a clean block homed here with remote copies:
		// the data is local, the sweeps do the rest.
		e.banks[node].AccessEvent(t.Await(stepArrive))
	} else {
		e.sendPath(t, node, t.responder, e.locals[cn].Geo.ProbeClassFor(block), stepProbed)
	}
	t.seal()
}

// Resume runs one step of the transaction.
func (t *txn) Resume(step coherence.Step, visited int, at sim.Time) {
	e := t.e
	switch step {
	case stepPathIRI:
		e.global.SendEvent(e.cluster(t.pathA), e.cluster(t.pathB), t.pathClass, t.Await(stepPathGlobal))
	case stepPathGlobal:
		e.locals[e.cluster(t.pathB)].SendEvent(e.iri(), e.local(t.pathB), t.pathClass, t.Await(t.pathDone))
	case stepWBLand:
		e.land(t.node, t.home, t.block)
	case stepLocalMiss:
		st := coherence.ReadShared
		if t.write {
			st = coherence.WriteExclusive
			m := e.meta.At(t.mi)
			m.Dirty = true
			m.Owner = t.node
		}
		e.fill(t.node, t.block, st)
		class := coherence.ReadMissClean
		if t.write {
			class = coherence.WriteMissClean
		}
		t.Finish(e.k.Now(), coherence.Result{Txn: class, Local: true})
	case stepProbed:
		r := t.responder
		if t.dirtyRemote {
			if t.write {
				e.invalidate(r, t.block)
			} else {
				e.caches[r].Downgrade(t.block)
			}
			e.k.AfterEvent(CacheSupplyTime, t.Await(stepFetched))
		} else {
			e.banks[r].AccessEvent(t.Await(stepFetched))
		}
	case stepFetched:
		e.sendPath(t, t.responder, t.node, ring.BlockSlot, stepArrive)
	case stepArrive:
		t.arrive(e.k.Now())
	case stepToIRI:
		cn := e.cluster(t.node)
		e.global.SendEvent(cn, ring.Broadcast, e.locals[cn].Geo.ProbeClassFor(t.block), t.Await(stepGlobalSweep))
	case stepGlobalSweep:
		if visited < 0 {
			t.arrive(at)
			return
		}
		// Each IRI whose cluster holds copies injects a local sweep.
		if e.copiesOf(t.mi)[visited] == 0 {
			return
		}
		t.join++
		e.locals[visited].SendEvent(e.iri(), ring.Broadcast, e.locals[visited].Geo.ProbeClassFor(t.block), e.newSweep(t, visited))
	}
}

// sweeps launches the invalidation sweeps a write needs: a broadcast on
// the requester's local ring, and — when the IRI summary shows copies
// elsewhere — a global broadcast that injects a sweep into every
// cluster holding copies.
func (e *Engine) sweeps(t *txn) {
	cn := e.cluster(t.node)
	class := e.locals[cn].Geo.ProbeClassFor(t.block)

	// Local sweep from the requester.
	t.join++
	e.locals[cn].SendEvent(e.local(t.node), ring.Broadcast, class, e.newSweep(t, cn))

	if !remoteCopies(e.copiesOf(t.mi), cn) {
		return
	}
	// Global sweep: the IRI forwards the invalidation around the global
	// ring (stepToIRI, then stepGlobalSweep).
	t.join++
	e.locals[cn].SendEvent(e.local(t.node), e.iri(), class, t.Await(stepToIRI))
}

// arrive records one joined branch's arrival at time at.
func (t *txn) arrive(at sim.Time) {
	if at > t.latest {
		t.latest = at
	}
	t.join--
	t.maybeFire()
}

// seal marks the join's registration complete.
func (t *txn) seal() {
	t.sealed = true
	t.maybeFire()
}

// maybeFire completes the transaction at the latest arrival once the
// join is sealed and every branch has arrived.
func (t *txn) maybeFire() {
	if !t.sealed || t.join != 0 || t.fired {
		return
	}
	t.fired = true
	e, at := t.e, t.latest
	if t.upgrade {
		if !e.caches[t.node].Upgrade(t.block) {
			e.fill(t.node, t.block, coherence.WriteExclusive)
		}
		m := e.meta.At(t.mi)
		m.Dirty = true
		m.Owner = t.node
		t.Finish(at, coherence.Result{Txn: coherence.Invalidation, Traversals: t.trav})
		return
	}
	st := coherence.ReadShared
	m := e.meta.At(t.mi)
	if t.write {
		st = coherence.WriteExclusive
		m.Dirty = true
		m.Owner = t.node
	} else if t.dirtyRemote {
		m.Dirty = false
	}
	e.fill(t.node, t.block, st)
	t.Finish(at, coherence.Result{Txn: t.class, Traversals: t.trav})
}

// sweep is one local-ring invalidation broadcast of a write: it
// invalidates every processor of its cluster it passes (the IRI's
// position is skipped) and joins the transaction when it returns.
type sweep struct {
	t       *txn
	cluster int
}

func (e *Engine) newSweep(t *txn, cluster int) *sweep {
	var s *sweep
	if n := len(e.sweepFree); n > 0 {
		s = e.sweepFree[n-1]
		e.sweepFree = e.sweepFree[:n-1]
	} else {
		s = &sweep{}
	}
	s.t, s.cluster = t, cluster
	return s
}

// OnVisit invalidates the visited processor's copy.
func (s *sweep) OnVisit(visited int, _ sim.Time) {
	e := s.t.e
	if visited < e.perClus {
		e.invalidate(s.cluster*e.perClus+visited, s.t.block)
	}
}

// OnEvent joins the returned sweep; the record is recycled first.
func (s *sweep) OnEvent(at sim.Time) {
	t := s.t
	s.t = nil
	t.e.sweepFree = append(t.e.sweepFree, s)
	t.arrive(at)
}

// upgrade services an invalidation request.
func (e *Engine) upgrade(node int, block uint64, done coherence.Done) {
	mi := e.row(block)
	cn := e.cluster(node)
	needGlobal := remoteCopies(e.copiesOf(mi), cn)
	t := e.newTxn(node, block, done)
	t.mi, t.upgrade = mi, true
	t.trav = 1
	e.Txns++
	if needGlobal {
		t.trav = 2
		e.GlobalTxns++
	}
	e.sweeps(t)
	t.seal()
}
