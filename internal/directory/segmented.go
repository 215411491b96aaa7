package directory

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/ring"
	"repro/internal/sim"
)

// The segmented directory engine (SegEngine) runs the same full-map
// protocol as Engine, but over the segmented ring variant, where a
// message may cross a shard boundary mid-flight. Closures cannot
// cross shards, so every remote interaction travels as a SegPayload
// packet that the receiving node's engine interprets against its own
// node-ranged state:
//
//	pkReq          requester → home    read/write miss request (probe)
//	pkUpReq        requester → home    upgrade request (probe)
//	pkOwnerReq     home/req → owner    forward to the dirty owner (probe)
//	pkBlockData    supplier → req      block data response (block slot)
//	pkAck          home → requester    upgrade acknowledgement (probe)
//	pkWB           node → home         dirty-eviction write-back (block)
//	pkInvalFill    broadcast from req  local write miss, shared elsewhere
//	pkInvalLocal   broadcast from req  local upgrade sweep
//	pkInvalSend    broadcast from home remote write miss sweep, then data
//	pkInvalAck     broadcast from home remote upgrade sweep, then ack
//
// Every response packet echoes the transaction's classification
// (transaction kind, latency class, traversal count — computed where
// the directory decision is made, exactly as in the closure engine) in
// the payload, so the requester needs no protocol state beyond its
// single outstanding request: processors block on misses, and the
// partition planner excludes non-blocking stores, so one pending slot
// per node is an invariant, not an approximation.
//
// State partitioning makes this shardable: directory lines are touched
// only at the block's home (inside the home bank's serialized access),
// caches and banks only at their own node, and each of those nodes
// belongs to exactly one engine.

const (
	pkReq uint8 = iota
	pkUpReq
	pkOwnerReq
	pkBlockData
	pkAck
	pkWB
	pkInvalFill
	pkInvalLocal
	pkInvalSend
	pkInvalAck
)

// flagWrite marks the request as a write in SegPayload.Flags.
const flagWrite = 1

// encodeRes packs a transaction's classification into SegPayload.B.
func encodeRes(txn coherence.Txn, class coherence.MissClass, trav int) uint64 {
	return uint64(txn) | uint64(class)<<8 | uint64(trav)<<16
}

// decodeRes unpacks encodeRes.
func decodeRes(b uint64) (txn coherence.Txn, class coherence.MissClass, trav int) {
	return coherence.Txn(b), coherence.MissClass(b >> 8), int(b >> 16 & 0xff)
}

// segPending is a node's single outstanding blocking request.
type segPending struct {
	active  bool
	upgrade bool
	block   uint64
	write   bool
	done    func(at sim.Time, res coherence.Result)
}

// SegEngine is the full-map directory engine over a chain of ring
// segments. One engine serves the contiguous node range covered by its
// segments; a sequential run uses one engine over the whole chain, a
// partitioned run one engine per domain.
type SegEngine struct {
	k      *sim.Kernel
	segs   []*ring.SegRing
	geo    *ring.Geometry
	lo, hi int

	caches  []*cache.Cache
	banks   []*memory.Bank
	home    *memory.HomeMap
	dir     *memory.Directory[memory.Line]
	pending []segPending

	// WriteBacks counts dirty-eviction block messages; wbByNode feeds
	// the core's per-processor warmup gating.
	WriteBacks uint64
	wbByNode   []uint64
}

// NewSegmented returns a directory engine over the given (already
// linked) ring segments, which must cover a contiguous node range.
// opts is interpreted as for New; the tracer is rejected — the
// segmented engine is the parallel covered class, and spans sample on
// a global counter that has no deterministic sharded equivalent.
func NewSegmented(segs []*ring.SegRing, opts Options) *SegEngine {
	opts.fill()
	if len(segs) == 0 {
		panic("directory: NewSegmented needs at least one segment")
	}
	if opts.Tracer != nil {
		panic("directory: tracing is unsupported with the segmented ring")
	}
	lo, _ := segs[0].NodeRange()
	_, hi := segs[len(segs)-1].NodeRange()
	n := segs[0].Geo.Nodes
	e := &SegEngine{
		k:       segs[0].Kernel(),
		segs:    segs,
		geo:     &segs[0].Geo,
		lo:      lo,
		hi:      hi,
		caches:  make([]*cache.Cache, n),
		banks:   make([]*memory.Bank, n),
		home:    homeMapFor(n, opts),
		dir:     memory.NewDirectory(),
		pending: make([]segPending, n),
	}
	e.wbByNode = make([]uint64, n)
	for i := lo; i < hi; i++ {
		e.caches[i] = cache.New(opts.Cache)
		e.banks[i] = memory.NewBank(e.k, "mem")
	}
	for _, sr := range e.segs {
		sr.SetClient(e)
	}
	return e
}

// Segments returns the engine's ring segments.
func (e *SegEngine) Segments() []*ring.SegRing { return e.segs }

// HomeMap returns the page-to-home placement.
func (e *SegEngine) HomeMap() *memory.HomeMap { return e.home }

// Cache returns node's cache (tests only).
func (e *SegEngine) Cache(node int) *cache.Cache { return e.caches[node] }

// WriteBacksOf returns the write-backs caused by node's own evictions.
func (e *SegEngine) WriteBacksOf(node int) uint64 { return e.wbByNode[node] }

// segOf returns the segment ring owning node (which must be in range).
func (e *SegEngine) segOf(node int) *ring.SegRing {
	return e.segs[e.geo.SegOf(node)-e.segs[0].Segment()]
}

// HasBlock reports whether node caches the block containing addr in a
// readable state.
func (e *SegEngine) HasBlock(node int, addr uint64) bool {
	c := e.caches[node]
	return c.State(c.BlockAddr(addr)) != coherence.Invalid
}

// Access performs one data reference for node; done fires at
// completion.
func (e *SegEngine) Access(node int, addr uint64, write bool, done func(at sim.Time, res coherence.Result)) {
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

// setPending parks node's outstanding request until its response
// packet lands. Blocking processors have at most one in flight.
func (e *SegEngine) setPending(node int, block uint64, write, upgrade bool, done func(sim.Time, coherence.Result)) {
	p := &e.pending[node]
	if p.active {
		panic(fmt.Sprintf("directory: node %d already has an outstanding request (block %#x)", node, p.block))
	}
	*p = segPending{active: true, upgrade: upgrade, block: block, write: write, done: done}
}

// takePending retrieves and clears node's outstanding request,
// checking it matches the response's block.
func (e *SegEngine) takePending(node int, block uint64) segPending {
	p := e.pending[node]
	if !p.active || p.block != block {
		panic(fmt.Sprintf("directory: node %d got response for block %#x with no matching request", node, block))
	}
	e.pending[node] = segPending{}
	return p
}

// fill installs a block, sending a write-back for any dirty victim.
func (e *SegEngine) fill(node int, block uint64, st coherence.State) {
	if v := e.caches[node].Fill(block, st); v.Valid && v.Dirty {
		if DebugEvict != nil {
			DebugEvict(node, block, v.Block)
		}
		e.writeBack(node, v.Block)
	}
}

// writeBack returns a dirty block to its home, off the critical path.
func (e *SegEngine) writeBack(node int, block uint64) {
	e.WriteBacks++
	e.wbByNode[node]++
	h := e.home.Home(block)
	if h == node {
		e.banks[h].Access(func() {
			e.dir.Line(block).RemoveSharer(node)
		})
		return
	}
	e.segOf(node).Send(node, h, ring.BlockSlot, ring.SegPayload{Kind: pkWB, X: int32(node), A: block})
}

// miss services a read or write miss.
func (e *SegEngine) miss(node int, block uint64, write bool, done func(sim.Time, coherence.Result)) {
	h := e.home.Home(block)
	if h == node {
		e.localMiss(node, block, write, done)
		return
	}
	var fl uint8
	if write {
		fl = flagWrite
	}
	e.setPending(node, block, write, false, done)
	e.segOf(node).Send(node, h, e.geo.ProbeClassFor(block),
		ring.SegPayload{Kind: pkReq, Flags: fl, X: int32(node), A: block})
}

// localMiss handles a miss whose home is the requesting node. The
// directory decisions are the closure engine's, packet-shaped.
func (e *SegEngine) localMiss(node int, block uint64, write bool, done func(sim.Time, coherence.Result)) {
	e.banks[node].Access(func() {
		ln := e.dir.Line(block)
		dirtyRemote := ln.Dirty && ln.Owner != node
		switch {
		case dirtyRemote:
			// Request straight to the dirty node; it supplies the block
			// directly back: exactly one traversal (n→o→n).
			o := ln.Owner
			txn := coherence.ReadMissDirty
			var fl uint8
			if write {
				txn = coherence.WriteMissDirty
				fl = flagWrite
				ln.SetDirty(node)
			} else {
				ln.Dirty = false
				ln.AddSharer(node)
			}
			e.setPending(node, block, write, false, done)
			e.segOf(node).Send(node, o, e.geo.ProbeClassFor(block), ring.SegPayload{
				Kind: pkOwnerReq, Flags: fl, X: int32(node), A: block,
				B: encodeRes(txn, coherence.OneCycleDirty, 1),
			})
		case write && ln.NumSharers() > 0 && !(ln.NumSharers() == 1 && ln.HasSharer(node)):
			// Local write miss, block shared remotely: multicast and
			// wait for the sweep to return before completing.
			ln.SetDirty(node)
			e.setPending(node, block, write, false, done)
			e.segOf(node).Send(node, ring.Broadcast, e.geo.ProbeClassFor(block), ring.SegPayload{
				Kind: pkInvalFill, Flags: flagWrite, X: int32(node), A: block,
				B: encodeRes(coherence.WriteMissClean, coherence.OneCycleClean, 1),
			})
		default:
			// Purely local.
			if write {
				ln.SetDirty(node)
				e.fill(node, block, coherence.WriteExclusive)
				done(e.k.Now(), coherence.Result{Txn: coherence.WriteMissClean, Local: true})
			} else {
				ln.AddSharer(node)
				e.fill(node, block, coherence.ReadShared)
				done(e.k.Now(), coherence.Result{Txn: coherence.ReadMissClean, Local: true})
			}
		}
	})
}

// upgrade services an invalidation request: the requester holds RS and
// asks the home for write permission.
func (e *SegEngine) upgrade(node int, block uint64, done func(sim.Time, coherence.Result)) {
	h := e.home.Home(block)
	if h == node {
		e.banks[h].Access(func() {
			ln := e.dir.Line(block)
			if sharedElsewhere(ln, node, node) {
				ln.SetDirty(node)
				e.setPending(node, block, true, true, done)
				e.segOf(node).Send(node, ring.Broadcast, e.geo.ProbeClassFor(block), ring.SegPayload{
					Kind: pkInvalLocal, X: int32(node), A: block,
					B: encodeRes(coherence.Invalidation, coherence.LocalOrHit, 1),
				})
			} else {
				ln.SetDirty(node)
				e.finishUpgrade(node, block, e.k.Now(), 0, done)
			}
		})
		return
	}
	e.setPending(node, block, true, true, done)
	e.segOf(node).Send(node, h, e.geo.ProbeClassFor(block),
		ring.SegPayload{Kind: pkUpReq, X: int32(node), A: block})
}

// finishUpgrade grants write permission at the requester.
func (e *SegEngine) finishUpgrade(node int, block uint64, at sim.Time, trav int, done func(sim.Time, coherence.Result)) {
	if !e.caches[node].Upgrade(block) {
		// Invalidated by a racing writer while our request was in
		// flight; the permission grant still stands per the directory,
		// so install fresh.
		e.fill(node, block, coherence.WriteExclusive)
	}
	done(at, coherence.Result{Txn: coherence.Invalidation, Traversals: trav, Local: trav == 0})
}

// atHome runs the home-node directory actions for a remote miss, at
// the point the home's bank grants the (lookup + fetch) access.
func (e *SegEngine) atHome(node, h int, block uint64, write bool) {
	g := e.geo
	ln := e.dir.Line(block)
	dirtyRemote := ln.Dirty && ln.Owner != node && ln.Owner != h
	if DebugMiss != nil {
		DebugMiss(block, ln.NumSharers(), ln.Dirty, ln.Owner, node, write)
	}
	var fl uint8
	if write {
		fl = flagWrite
	}

	switch {
	case dirtyRemote:
		// Forward to the dirty node; it supplies the block to the
		// requester. One extra traversal unless the owner lies on the
		// home→requester arc (Figure 2.b).
		o := ln.Owner
		total := g.DistStages(node, h) + g.DistStages(h, o) + g.DistStages(o, node)
		trav := e.traversals(total)
		txn := coherence.ReadMissDirty
		if write {
			txn = coherence.WriteMissDirty
			ln.SetDirty(node)
		} else {
			ln.Dirty = false
			ln.AddSharer(node)
		}
		e.segOf(h).Send(h, o, g.ProbeClassFor(block), ring.SegPayload{
			Kind: pkOwnerReq, Flags: fl, X: int32(node), A: block,
			B: encodeRes(txn, classifyDirty(trav), trav),
		})

	case write && sharedElsewhere(ln, node, h):
		// Multicast invalidation, then respond: two traversals total.
		// The home's own copy (if any) dies too.
		e.caches[h].Invalidate(block)
		ln.SetDirty(node)
		e.segOf(h).Send(h, ring.Broadcast, g.ProbeClassFor(block), ring.SegPayload{
			Kind: pkInvalSend, Flags: fl, X: int32(node), A: block,
			B: encodeRes(coherence.WriteMissClean, coherence.TwoCycle, 2),
		})

	default:
		// Clean (or home-owned): the home supplies directly. If the
		// home's own cache holds it WE, it downgrades/invalidates.
		txn := coherence.ReadMissClean
		if ln.Dirty && ln.Owner == h {
			txn = coherence.ReadMissDirty
			if write {
				txn = coherence.WriteMissDirty
				e.caches[h].Invalidate(block)
			} else {
				e.caches[h].Downgrade(block)
			}
		} else if write {
			txn = coherence.WriteMissClean
			e.caches[h].Invalidate(block)
		}
		if write {
			ln.SetDirty(node)
		} else {
			ln.Dirty = false
			ln.AddSharer(node)
		}
		class := coherence.OneCycleClean
		if txn == coherence.ReadMissDirty || txn == coherence.WriteMissDirty {
			class = coherence.OneCycleDirty
		}
		e.segOf(h).Send(h, node, ring.BlockSlot, ring.SegPayload{
			Kind: pkBlockData, Flags: fl, X: int32(node), A: block,
			B: encodeRes(txn, class, 1),
		})
	}
}

// traversals converts a total downstream path length into ring
// traversals.
func (e *SegEngine) traversals(stages int) int {
	t := stages / e.geo.TotalStages
	if stages%e.geo.TotalStages != 0 {
		t++
	}
	if t == 0 {
		t = 1
	}
	return t
}

// SegDeliver interprets a point-to-point packet at its destination.
func (e *SegEngine) SegDeliver(dst int, at sim.Time, p ring.SegPayload) {
	block := p.A
	write := p.Flags&flagWrite != 0
	switch p.Kind {
	case pkReq:
		// dst is the home; the requester is p.X. The home's bank
		// serializes the directory lookup.
		req := int(p.X)
		e.banks[dst].Access(func() {
			e.atHome(req, dst, block, write)
		})

	case pkUpReq:
		req := int(p.X)
		e.banks[dst].Access(func() {
			ln := e.dir.Line(block)
			if DebugUpgrade != nil {
				DebugUpgrade(block, ln.NumSharers(), dst, req, sharedElsewhere(ln, req, dst))
			}
			if sharedElsewhere(ln, req, dst) {
				e.caches[dst].Invalidate(block)
				ln.SetDirty(req)
				e.segOf(dst).Send(dst, ring.Broadcast, e.geo.ProbeClassFor(block), ring.SegPayload{
					Kind: pkInvalAck, X: int32(req), Y: int32(dst), A: block,
					B: encodeRes(coherence.Invalidation, coherence.LocalOrHit, 2),
				})
			} else {
				e.caches[dst].Invalidate(block)
				ln.SetDirty(req)
				e.segOf(dst).Send(dst, req, e.geo.ProbeClassFor(block), ring.SegPayload{
					Kind: pkAck, X: int32(req), A: block,
					B: encodeRes(coherence.Invalidation, coherence.LocalOrHit, 1),
				})
			}
		})

	case pkOwnerReq:
		// dst is the dirty owner: fetch from cache, downgrade or
		// invalidate the copy, ship the block to the requester.
		req := int(p.X)
		if write {
			e.caches[dst].Invalidate(block)
		} else {
			e.caches[dst].Downgrade(block)
		}
		resp := ring.SegPayload{Kind: pkBlockData, Flags: p.Flags, X: p.X, A: block, B: p.B}
		e.k.After(CacheSupplyTime, func() {
			e.segOf(dst).Send(dst, req, ring.BlockSlot, resp)
		})

	case pkBlockData:
		// dst is the original requester: install and complete.
		pend := e.takePending(dst, block)
		txn, class, trav := decodeRes(p.B)
		st := coherence.ReadShared
		if pend.write {
			st = coherence.WriteExclusive
		}
		e.fill(dst, block, st)
		pend.done(at, coherence.Result{Txn: txn, Class: class, Traversals: trav})

	case pkAck:
		pend := e.takePending(dst, block)
		_, _, trav := decodeRes(p.B)
		e.finishUpgrade(dst, block, at, trav, pend.done)

	case pkWB:
		// dst is the home: record the returned block.
		src := int(p.X)
		e.banks[dst].Access(func() {
			e.dir.Line(block).RemoveSharer(src)
		})

	default:
		panic(fmt.Sprintf("directory: unexpected delivery kind %d at node %d", p.Kind, dst))
	}
}

// SegVisit observes a passing message head. Only invalidation sweeps
// act on intermediate nodes: every copy except the requester's dies.
func (e *SegEngine) SegVisit(node int, at sim.Time, p ring.SegPayload) {
	switch p.Kind {
	case pkInvalFill, pkInvalLocal, pkInvalSend, pkInvalAck:
		if node != int(p.X) {
			e.caches[node].Invalidate(p.A)
		}
	}
}

// SegReturn completes a broadcast at its source.
func (e *SegEngine) SegReturn(src int, at sim.Time, p ring.SegPayload) {
	block := p.A
	switch p.Kind {
	case pkInvalFill:
		// src is the requesting home node: the sweep is back, install
		// write-exclusive and complete.
		pend := e.takePending(src, block)
		txn, class, trav := decodeRes(p.B)
		e.fill(src, block, coherence.WriteExclusive)
		pend.done(at, coherence.Result{Txn: txn, Class: class, Traversals: trav})

	case pkInvalLocal:
		pend := e.takePending(src, block)
		_, _, trav := decodeRes(p.B)
		e.finishUpgrade(src, block, at, trav, pend.done)

	case pkInvalSend:
		// src is the home: sweep done, ship the data to the requester.
		req := int(p.X)
		e.segOf(src).Send(src, req, ring.BlockSlot, ring.SegPayload{
			Kind: pkBlockData, Flags: p.Flags, X: p.X, A: block, B: p.B,
		})

	case pkInvalAck:
		// src is the home: sweep done, ack the upgrade.
		req := int(p.X)
		e.segOf(src).Send(src, req, e.geo.ProbeClassFor(block), ring.SegPayload{
			Kind: pkAck, X: p.X, A: block, B: p.B,
		})

	default:
		panic(fmt.Sprintf("directory: unexpected broadcast return kind %d at node %d", p.Kind, src))
	}
}
