// Parallel execution of complete systems: the model-level layer over
// sim.ParKernel.
//
// The partitioner splits the machine's node range into P contiguous
// domains, each a full System (its own ring geometry, home map,
// node-ranged directory engine, calendar queue and event slab) running
// on one shard of a conservative-window parallel kernel. That is only
// correct when the domains provably never interact, so parallelism is
// honored for exactly the covered class:
//
//   - DirectoryRing protocol: the only engine whose node-local path
//     (requester == home) touches no globally arbitrated interconnect
//     state. The slotted-ring, bus and hierarchical engines arbitrate
//     every transaction through central slot/tenure state with zero
//     lookahead, so they cannot be partitioned without rewriting their
//     arbitration — they fall back.
//   - A private-only workload (Source implementing PrivateOnly with
//     PrivateFrac == 1): every reference lands in the issuing CPU's own
//     address regions, whose pages the home hint places on the issuing
//     node, so every miss takes the node-local directory path and no
//     cross-domain event ever exists.
//   - No tracing and no non-blocking stores: the tracer samples on a
//     global span counter, which is interleaving-dependent.
//
// Everything else runs on the sequential kernel with the reason
// recorded in Metrics.Parallel.Fallback — a loud fallback, never a
// silent divergence. For the covered class the per-domain runs are
// reference-for-reference identical to the sequential run's per-node
// timelines, and the merge below folds per-domain aggregates with
// integer-exact, order-free arithmetic, so the result artifact is
// byte-identical to the sequential one (the cross-check tests enforce
// this).
package core

import (
	"fmt"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/workload"
)

// domainWindow is the barrier-window width for partitioned runs of the
// unsegmented covered class. That class has no cross-domain coupling at
// all (infinite lookahead), so any width is conservative; 100 µs keeps
// the window counter meaningful for progress accounting while making
// barrier overhead negligible against multi-millisecond simulated runs.
//
// Segmented-interconnect runs instead derive their window from the
// model: the minimum boundary-link hop latency (Geometry.MinSegmentHop)
// is exactly how far one segment can affect the next, so it is the
// widest window that can never miss a cross-shard message.
const domainWindow = 100 * sim.Microsecond

// planPartitions decides how many partitions cfg/src actually get, the
// barrier-window width to run them under and, when the answer is 1
// despite a larger request, why.
func planPartitions(cfg Config, src workload.Source) (p int, window sim.Time, fallback string) {
	req := cfg.Parallel
	if req <= 1 {
		return 1, 0, ""
	}
	if cfg.Protocol != DirectoryRing {
		return 1, 0, fmt.Sprintf("protocol %v is centrally arbitrated (zero lookahead)", cfg.Protocol)
	}
	if cfg.Trace.Enabled() {
		return 1, 0, "tracing samples on a global span counter"
	}
	if cfg.NonBlockingStores {
		return 1, 0, "non-blocking stores are outside the covered class"
	}
	n := src.NumCPUs()
	if req > n {
		req = n
	}
	if S := cfg.Ring.Segments; S >= 2 {
		// Segmented interconnect: boundary-crossing traffic is carried as
		// cross-shard events, so any workload is covered — but domains
		// must own whole segments (a segment's injection and link state
		// is single-shard), so the partition count is the largest divisor
		// of S within the request.
		p = req
		if p > S {
			p = S
		}
		for ; p >= 2; p-- {
			if S%p == 0 {
				break
			}
		}
		if p < 2 {
			return 1, 0, fmt.Sprintf("no divisor of %d ring segments within requested parallelism %d", S, req)
		}
		rc := cfg.Ring
		rc.Nodes = n
		g := ring.NewGeometry(rc)
		w := g.MinSegmentHop()
		if w <= 0 {
			// The covered class is defined by positive boundary-link
			// lookahead; a geometry without it is a model bug, not a
			// fallback case.
			panic(fmt.Sprintf("core: segmented ring (%d nodes, %d segments) has zero boundary-link lookahead", n, S))
		}
		return p, w, ""
	}
	po, ok := src.(interface{ PrivateOnly() bool })
	if !ok || !po.PrivateOnly() {
		return 1, 0, "workload shares data across partitions"
	}
	return req, domainWindow, ""
}

// Run executes src under cfg, honoring cfg.Parallel for covered
// configurations and falling back to the sequential kernel loudly
// otherwise. It is the preferred entry point for drivers; the result
// is byte-identical to NewSystem(cfg, src).Run() in either case, plus
// the ParallelStats record of how the run executed.
func Run(cfg Config, src workload.Source) *Metrics {
	p, window, fallback := planPartitions(cfg, src)
	if p <= 1 {
		s := NewSystem(cfg, src)
		m := s.Run()
		m.Parallel = ParallelStats{Requested: cfg.Parallel, Partitions: 1, Fallback: fallback}
		return m
	}

	n := src.NumCPUs()
	pk := sim.NewParKernel(p, window)

	// Segmented interconnect: build every ring segment on its owning
	// shard, then close the chain — same-shard boundaries hand off
	// through the shard's own banded calendar, cross-shard ones through
	// the parallel kernel's lookahead-checked post. The sequential
	// segmented run makes the identical AtBoundary calls on one kernel,
	// which is what the byte-identity cross-checks lean on.
	var domSegs [][]*ring.SegRing
	if S := cfg.Ring.Segments; S >= 2 {
		rc := cfg.Ring
		rc.Nodes = n
		segs := make([]*ring.SegRing, S)
		shardOf := func(seg int) int { return seg * p / S }
		for si := 0; si < S; si++ {
			segs[si] = ring.NewSegment(pk.Shard(shardOf(si)), rc, si)
		}
		for si := 0; si < S; si++ {
			from, to := shardOf(si), shardOf((si+1)%S)
			next := segs[(si+1)%S]
			if from == to {
				segs[si].Link(next, pk.Shard(from).AtBoundary)
			} else {
				from, to := from, to
				segs[si].Link(next, func(at sim.Time, seq uint64, h sim.EventHandler) {
					pk.PostAt(from, to, at, seq, h)
				})
			}
		}
		domSegs = make([][]*ring.SegRing, p)
		for i := 0; i < p; i++ {
			domSegs[i] = segs[i*S/p : (i+1)*S/p]
		}
	}

	doms := make([]*System, p)
	for i := 0; i < p; i++ {
		lo, hi := i*n/p, (i+1)*n/p
		var sg []*ring.SegRing
		if domSegs != nil {
			sg = domSegs[i]
		}
		doms[i] = newSystemOn(pk.Shard(i), cfg, src, lo, hi, sg)
	}
	for _, d := range doms {
		d.start()
	}
	pk.Run()

	// Reduce in fixed ascending-domain order. Every merged quantity is
	// an integer sum, max, or integer-moment accumulator, so the order
	// cannot change the result — fixing it anyway keeps the reduction
	// trivially auditable.
	root := doms[0]
	root.collect()
	for _, d := range doms[1:] {
		d.collect()
		root.mergeDomain(d)
	}
	root.finalize()

	st := pk.Stats()
	root.m.Parallel = ParallelStats{
		Requested:      cfg.Parallel,
		Partitions:     p,
		WindowPS:       int64(window),
		Windows:        st.Windows,
		CrossEvents:    st.CrossEvents,
		CrossWindows:   st.CrossWindows,
		BarrierStallNS: st.BarrierStallNS,
	}
	return root.detached()
}

// mergeDomain folds domain d's collected (but not finalized) metrics
// into s's.
func (s *System) mergeDomain(d *System) {
	dm, sm := &d.m, &s.m
	if dm.ExecTime > sm.ExecTime {
		sm.ExecTime = dm.ExecTime
	}
	sm.BusyTime += dm.BusyTime
	sm.StallTime += dm.StallTime

	sm.InstrRefs += dm.InstrRefs
	sm.DataRefs += dm.DataRefs
	sm.SharedRefs += dm.SharedRefs
	sm.Hits += dm.Hits
	sm.SharedMisses += dm.SharedMisses
	sm.PrivateMisses += dm.PrivateMisses
	sm.Upgrades += dm.Upgrades
	sm.LocalMisses += dm.LocalMisses
	sm.LocalInvs += dm.LocalInvs
	sm.WriteBacks += dm.WriteBacks
	sm.TwoCycleMulticast += dm.TwoCycleMulticast
	for t, c := range dm.TxnCount {
		sm.TxnCount[t] += c
	}
	sm.BufferedStores += dm.BufferedStores
	for c, cnt := range dm.ClassCount {
		sm.ClassCount[c] += cnt
	}
	for o, cnt := range dm.MissTraversals.Counts() {
		sm.MissTraversals.AddCount(o, cnt)
	}
	for o, cnt := range dm.InvTraversals.Counts() {
		sm.InvTraversals.AddCount(o, cnt)
	}

	s.missAcc.merge(&d.missAcc)
	s.invAcc.merge(&d.invAcc)
	s.bufAcc.merge(&d.bufAcc)

	// Segmented-interconnect occupancy integrals: plain integer sums;
	// finalize turns the whole-machine totals into NetworkUtil.
	s.segTransitPS += d.segTransitPS
	s.segWarmPS += d.segWarmPS

	// Domains report their own (idle, for the covered class) rings; the
	// sequential run's figure for a traffic-free ring is exactly 0, so
	// max keeps the identical value while staying honest if a future
	// covered class ever carries traffic.
	if dm.NetworkUtil > sm.NetworkUtil {
		sm.NetworkUtil = dm.NetworkUtil
	}

	// Simulator-side counters (snapshot-excluded): total work and the
	// widest per-partition slab.
	sm.EventsFired += dm.EventsFired
	if dm.EventSlab > sm.EventSlab {
		sm.EventSlab = dm.EventSlab
	}
}
