package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ring"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// replaySizes sets how many operations each standalone replay times.
type replaySizes struct {
	events, sends, hashes, lookups, snapshots, requests int
}

var (
	fullReplays  = replaySizes{events: 2_000_000, sends: 200_000, hashes: 20_000, lookups: 200_000, snapshots: 2_000, requests: 2_000}
	quickReplays = replaySizes{events: 20_000, sends: 2_000, hashes: 200, lookups: 2_000, snapshots: 20, requests: 20}
)

// replayReps is how many times each replay runs; the median is kept.
const replayReps = 3

// medianOf runs f reps times and returns the median result.
func medianOf(reps int, f func() float64) float64 {
	var s samples
	for i := 0; i < reps; i++ {
		s = append(s, f())
	}
	return s.median()
}

// perLayerNames is the per-layer metric set every workload's traced
// run reports, in BENCHMARK.json order.
func perLayerNames() []string {
	names := append([]string(nil), hostTimings...)
	names = append(names, "workload.next_ns", "cache.lookup_ns", "cache.hit_ratio", "core.new_system_us")
	for _, kind := range []string{"core.run_ns_per_ref", "core.mallocs_per_txn", "core.txn_per_ref", "sim.events_per_ref", "core.unexplained_frac"} {
		for _, m := range machines {
			names = append(names, kind+"."+m.name)
		}
	}
	names = append(names, "sim.event_ns")
	for c := 0; c < ring.NumSlotClasses; c++ {
		names = append(names, "ring.msgs_per_ref."+ring.SlotClass(c).String())
	}
	return append(names,
		"ring.send_ns", "bus.tenures_per_ref", "bus.transact_ns", "runtime.gc_cpu_frac",
		"sweep.hash_ns", "sweep.lookup_ns", "core.snapshot_us", "serve.hit_handler_us",
		"trace_overhead_frac",
	)
}

// simLayers sets the per-layer metrics of the six machines at shape s.
// Run and NewSystem costs come from the untraced rounds, counts from
// the counted round, unit costs from standalone replays, and
// core.unexplained_frac reconciles the two: one minus the share of a
// machine's Run wall time that unit cost × count accounts for.
func simLayers(res *result, s shape, seed uint64, rounds []roundResult, counted roundResult, counts [len(machines)]machineCounts, rs replaySizes) error {
	snoopJob := s.job(machines[0], seed)
	wcfg, err := generatorConfig(snoopJob)
	if err != nil {
		return err
	}
	nextNS := medianOf(replayReps, func() float64 { return replayNext(wcfg) })
	var hitRatio float64 // the same on every replay of the stream
	lookupNS := medianOf(replayReps, func() float64 {
		ns, hr := replayCache(wcfg)
		hitRatio = hr
		return ns
	})
	eventNS := medianOf(replayReps, func() float64 { return replayEvents(rs.events, seed) })
	var msgMix [ring.NumSlotClasses]uint64
	var tenureMix [bus.NumTenureKinds]uint64
	var ringRefs, busRefs uint64
	for _, c := range counts {
		for i, n := range c.msgs {
			msgMix[i] += n
		}
		for i, n := range c.tenures {
			tenureMix[i] += n
		}
		if c.ring {
			ringRefs += c.dataRefs
		}
		if c.bus {
			busRefs += c.dataRefs
		}
	}
	sendNS := medianOf(replayReps, func() float64 { return replaySend(s.cpus, msgMix, rs.sends) })
	transactNS := medianOf(replayReps, func() float64 { return replayTransact(s.cpus, tenureMix, rs.sends) })

	set := res.setLayer
	set("workload.next_ns", nextNS, "ns", replayReps)
	set("cache.lookup_ns", lookupNS, "ns", replayReps)
	set("cache.hit_ratio", hitRatio, "frac", 0)
	set("sim.event_ns", eventNS, "ns", replayReps)
	set("ring.send_ns", sendNS, "ns", replayReps)
	set("bus.transact_ns", transactNS, "ns", replayReps)
	for c := 0; c < ring.NumSlotClasses; c++ {
		set("ring.msgs_per_ref."+ring.SlotClass(c).String(), ratio(msgMix[c], ringRefs), "count", 0)
	}
	var tenures uint64
	for _, n := range tenureMix {
		tenures += n
	}
	set("bus.tenures_per_ref", ratio(tenures, busRefs), "count", 0)

	var newSys samples
	for _, r := range rounds {
		for _, d := range r.newSystem {
			newSys = append(newSys, float64(d)/float64(time.Microsecond))
		}
	}
	set("core.new_system_us", newSys.median(), "us", len(newSys))
	refs := float64(s.dataRefs())
	for i, m := range machines {
		var run samples
		for _, r := range rounds {
			run = append(run, float64(r.run[i]))
		}
		c := counts[i]
		runNS := run.median()
		set("core.run_ns_per_ref."+m.name, runNS/refs, "ns", len(run))
		set("core.mallocs_per_txn."+m.name, ratio(c.mallocs, c.txns), "count", 0)
		set("core.txn_per_ref."+m.name, ratio(c.txns, c.dataRefs), "count", 0)
		set("sim.events_per_ref."+m.name, ratio(c.events, c.dataRefs), "count", 0)
		explained := nextNS*float64(c.nexts) + lookupNS*float64(c.dataRefs) + eventNS*float64(c.events)
		for _, n := range c.msgs {
			explained += sendNS * float64(n)
		}
		for _, n := range c.tenures {
			explained += transactNS * float64(n)
		}
		set("core.unexplained_frac."+m.name, 1-explained/runNS, "frac", 0)
	}

	// The serving-path replays run on a result of this shape, so their
	// cost tracks the snapshot size the workload produces.
	snap := counted.metrics[0].Snapshot()
	set("core.snapshot_us", medianOf(replayReps, func() float64 { return replaySnapshot(counted.metrics[0], rs.snapshots) }), "us", replayReps)
	eng := sweep.New(sweep.Options{Workers: 1})
	if err := eng.Adopt(&sweep.Result{Job: snoopJob, Hash: snoopJob.Hash(), Snapshot: snap}); err != nil {
		return err
	}
	set("sweep.hash_ns", medianOf(replayReps, func() float64 { return replayHash(snoopJob, rs.hashes) }), "ns", replayReps)
	set("sweep.lookup_ns", medianOf(replayReps, func() float64 { return replayLookup(eng, snoopJob.Hash(), rs.lookups) }), "ns", replayReps)
	var handlerUS samples
	for i := 0; i < replayReps; i++ {
		us, err := replayHitHandler(eng, snoopJob, rs.requests)
		if err != nil {
			return err
		}
		handlerUS = append(handlerUS, us)
	}
	set("serve.hit_handler_us", handlerUS.median(), "us", replayReps)
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayNext drains a fresh generator's streams: ns per Generator.Next.
func replayNext(cfg workload.Config) float64 {
	g := workload.NewGenerator(cfg)
	var n int
	start := time.Now()
	for cpu := 0; cpu < g.NumCPUs(); cpu++ {
		for {
			if _, ok := g.Next(cpu); !ok {
				break
			}
			n++
		}
	}
	return float64(time.Since(start)) / float64(n)
}

// replayCache replays the data references of the workload.Materialize
// stream through one cache per CPU — Lookup, then Fill on a miss or an
// upgrade — and returns ns per reference and the hit ratio. There is no
// coherence traffic between the caches: this is the cache's own cost.
func replayCache(cfg workload.Config) (ns, hitRatio float64) {
	tr := workload.Materialize("replay", workload.NewGenerator(cfg))
	type access struct {
		addr  uint64
		write bool
	}
	streams := make([][]access, len(tr.Streams))
	for cpu, refs := range tr.Streams {
		for _, r := range refs {
			if r.Op != coherence.Ifetch {
				streams[cpu] = append(streams[cpu], access{r.Addr, r.Op == coherence.Store})
			}
		}
	}
	caches := make([]*cache.Cache, len(streams))
	for i := range caches {
		c := cache.New(cache.Config{})
		// Write every frame once, so first-touch page faults on the
		// frame array fall outside the timed replay; the frames end
		// invalid, as in a fresh cache.
		sets := c.Config().SizeBytes / c.Config().BlockBytes
		for s := 0; s < sets; s++ {
			b := uint64(s * c.Config().BlockBytes)
			c.Fill(b, coherence.ReadShared)
			c.Invalidate(b)
		}
		caches[i] = c
	}
	var n int
	start := time.Now()
	for cpu, refs := range streams {
		c := caches[cpu]
		for _, a := range refs {
			switch c.Lookup(a.addr, a.write) {
			case cache.MissRead:
				c.Fill(c.BlockAddr(a.addr), coherence.ReadShared)
			case cache.MissWrite, cache.Upgrade:
				c.Fill(c.BlockAddr(a.addr), coherence.WriteExclusive)
			}
		}
		n += len(refs)
	}
	ns = float64(time.Since(start)) / float64(n)
	var hits, accesses uint64
	for _, c := range caches {
		hits += c.Hits
		accesses += c.Accesses
	}
	return ns, ratio(hits, accesses)
}

// churn keeps a fixed population of events in flight, each firing
// scheduling its successor up to 200 ns ahead: the calendar's
// steady state under the machine models.
type churn struct {
	k    *sim.Kernel
	rng  *sim.Rand
	left int
}

func (c *churn) OnEvent(at sim.Time) {
	if c.left <= 0 {
		return
	}
	c.left--
	c.k.AfterEvent(sim.Time(c.rng.Intn(int(200*sim.Nanosecond))), c)
}

// replayEvents returns ns per event of AtEvent scheduling plus dispatch.
func replayEvents(n int, seed uint64) float64 {
	k := sim.NewKernel()
	c := &churn{k: k, rng: sim.NewRand(seed), left: n}
	for i := 0; i < 64; i++ {
		k.AtEvent(sim.Time(i), c)
	}
	start := time.Now()
	k.Run()
	return float64(time.Since(start)) / float64(k.Fired())
}

// mixSchedule spreads n picks over the indices of mix in proportion to
// its counts (uniform when every count is zero), deterministically.
func mixSchedule(mix []uint64, n int) []int {
	var total uint64
	for _, c := range mix {
		total += c
	}
	out := make([]int, n)
	acc := make([]float64, len(mix))
	for i := range out {
		best := 0
		for j, c := range mix {
			share := 1 / float64(len(mix))
			if total > 0 {
				share = float64(c) / float64(total)
			}
			acc[j] += share
			if acc[j] > acc[best] {
				best = j
			}
		}
		acc[best]--
		out[i] = best
	}
	return out
}

// replayBatch is how many interconnect operations a replay issues at one
// simulated instant; only the issuing calls are timed, and the kernel
// then drains the batch's events untimed, so the reconciliation does not
// count event dispatch twice (sim.event_ns covers it).
const replayBatch = 64

// timeBatches issues n operations through issue, replayBatch at a time,
// and returns ns per operation.
func timeBatches(k *sim.Kernel, n int, issue func(i int)) float64 {
	var timed time.Duration
	done := 0
	for done < n {
		start := time.Now()
		for i := done; i < done+replayBatch; i++ {
			issue(i)
		}
		timed += time.Since(start)
		done += replayBatch
		k.Run()
	}
	return float64(timed) / float64(done)
}

// replaySend returns ns per ring.Send at the recorded slot-class mix,
// point to point over varying distances.
func replaySend(nodes int, mix [ring.NumSlotClasses]uint64, n int) float64 {
	k := sim.NewKernel()
	r := ring.New(k, ring.Config{Nodes: nodes})
	classes := mixSchedule(mix[:], replayBatch)
	done := func(at sim.Time) {}
	return timeBatches(k, n, func(i int) {
		j := i % replayBatch
		src := i % nodes
		r.Send(src, (src+1+j%(nodes-1))%nodes, ring.SlotClass(classes[j]), nil, done)
	})
}

// replayTransact returns ns per bus.Transact at the recorded tenure mix.
func replayTransact(nodes int, mix [bus.NumTenureKinds]uint64, n int) float64 {
	k := sim.NewKernel()
	b := bus.New(k, bus.Config{Nodes: nodes})
	kinds := mixSchedule(mix[:], replayBatch)
	done := func(at sim.Time) {}
	return timeBatches(k, n, func(i int) {
		b.Transact(i%nodes, bus.TenureKind(kinds[i%replayBatch]), nil, done)
	})
}

var hashSink string

// replayHash returns ns per sweep.Job.Hash.
func replayHash(j sweep.Job, n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		hashSink = j.Hash()
	}
	return float64(time.Since(start)) / float64(n)
}

// replayLookup returns ns per sweep.Engine.Lookup of a cached result.
func replayLookup(eng *sweep.Engine, hash string, n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, _, ok := eng.Lookup(hash); !ok {
			panic("bench: adopted result missing from the engine cache")
		}
	}
	return float64(time.Since(start)) / float64(n)
}

var snapshotSink []byte

// replaySnapshot returns µs per Metrics.Snapshot plus json.Marshal, the
// work behind every stored and served result.
func replaySnapshot(m *core.Metrics, n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		b, err := json.Marshal(m.Snapshot())
		if err != nil {
			panic(fmt.Sprintf("bench: marshal snapshot: %v", err))
		}
		snapshotSink = b
	}
	return float64(time.Since(start)) / float64(n) / float64(time.Microsecond)
}

// replayHitHandler returns µs per in-memory ServeHTTP of a POST /v1/jobs
// that hits the engine's cache: the serving stack without TCP.
func replayHitHandler(eng *sweep.Engine, j sweep.Job, n int) (float64, error) {
	h := serve.New(serve.Options{Engine: eng}).Handler()
	body, err := json.Marshal(j)
	if err != nil {
		return 0, err
	}
	var timed time.Duration
	for done := 0; done < n; {
		batch := min(100, n-done)
		reqs := make([]*http.Request, batch)
		recs := make([]*httptest.ResponseRecorder, batch)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
			recs[i] = httptest.NewRecorder()
		}
		start := time.Now()
		for i := range reqs {
			h.ServeHTTP(recs[i], reqs[i])
		}
		timed += time.Since(start)
		for _, rec := range recs {
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("hit replay: status %d: %s", rec.Code, rec.Body.String())
			}
		}
		done += batch
	}
	return float64(timed) / float64(n) / float64(time.Microsecond), nil
}
