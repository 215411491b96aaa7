package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// ErrUnavailable marks an executor failure that is a property of the
// execution substrate, not the job: no capacity exists to run it right
// now (e.g. a cluster with no live workers). Executors wrap it so
// serving layers can answer 503 instead of blaming the request.
var ErrUnavailable = errors.New("sweep: execution capacity unavailable")

// Executor computes one job's metrics. Executors must be pure: the
// returned metrics may depend only on the job's content, never on
// shared mutable state, wall-clock time, or execution order — that is
// the contract the memoization and the determinism guarantee rest on.
type Executor func(Job) (*core.Metrics, error)

// EventType tags a progress event.
type EventType int

const (
	// EventStart fires when a worker begins computing a job.
	EventStart EventType = iota
	// EventDone fires when a job finishes computing.
	EventDone
	// EventHit fires when a job is served from the cache.
	EventHit
	// EventError fires when a job's executor fails.
	EventError
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventStart:
		return "start"
	case EventDone:
		return "done"
	case EventHit:
		return "hit"
	case EventError:
		return "error"
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// Event is one progress notification, streamed to Options.OnEvent.
type Event struct {
	Type EventType
	Job  Job
	Hash string
	// Wall is the job's execution wall-clock (EventDone only).
	Wall time.Duration
	Err  error
}

// Options configures an Engine.
type Options struct {
	// Workers is the pool size; zero means runtime.NumCPU(). The bound
	// is engine-global: concurrent Run calls share one execution
	// semaphore, so at most Workers jobs compute at once no matter how
	// many callers are in flight.
	Workers int
	// CacheDir enables the on-disk content-addressed result cache.
	CacheDir string
	// Executors maps additional Job.Kind values to their executors.
	// Kind "" (the standalone simulator) is always available unless
	// overridden here.
	Executors map[string]Executor
	// OnEvent, when set, receives a streamed progress event per job
	// start/finish/hit. It may be called from multiple workers
	// concurrently and must not call back into the engine's Run.
	OnEvent func(Event)
	// Trace enables transaction tracing in the default standalone
	// executor. Tracing never enters a job's identity hash — simulated
	// results are bit-identical either way — but computed jobs then
	// carry a live tracer, and the engine folds their per-class span
	// latency histograms into its lifetime aggregates.
	Trace obs.Config
}

// BatchStats summarizes one Run call.
type BatchStats struct {
	Jobs      int           `json:"jobs"`
	CacheHits int           `json:"cache_hits"`
	DiskHits  int           `json:"disk_hits"`
	Computed  int           `json:"computed"`
	Errors    int           `json:"errors"`
	Wall      time.Duration `json:"wall_ns"`
}

// HitRate is the fraction of jobs served from cache (memory or disk).
func (b BatchStats) HitRate() float64 {
	if b.Jobs == 0 {
		return 0
	}
	return float64(b.CacheHits+b.DiskHits) / float64(b.Jobs)
}

// Stats is a point-in-time snapshot of an engine's counters.
type Stats struct {
	// Workers is the configured pool size.
	Workers int `json:"workers"`
	// Queued counts jobs ever submitted (monotone non-decreasing,
	// minus jobs abandoned undispatched by a cancelled Run); Running
	// is the in-flight gauge; Done counts finished jobs including
	// cache hits. At every instant Queued >= Running + Done: a job is
	// counted queued before it runs and stays counted after it
	// finishes, so Queued - Done is the current backlog.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	// CacheHits/DiskHits/Computed/Errors partition Done.
	CacheHits int `json:"cache_hits"`
	DiskHits  int `json:"disk_hits"`
	Computed  int `json:"computed"`
	Errors    int `json:"errors"`
	// ExecWall is total wall-clock spent executing jobs (sums across
	// workers, so it can exceed elapsed time); MeanJobWall is the mean
	// per computed job.
	ExecWall    time.Duration `json:"exec_wall_ns"`
	MeanJobWall time.Duration `json:"mean_job_wall_ns"`
	// SimulatedPS is total simulated time produced by computed jobs;
	// SimNSPerSec is the aggregate throughput in simulated nanoseconds
	// per wall-clock second of execution.
	SimulatedPS int64   `json:"simulated_ps"`
	SimNSPerSec float64 `json:"sim_ns_per_sec"`
	// EventsFired is the total kernel events dispatched by computed
	// jobs (cache hits fire none); EventsPerSec is the aggregate
	// dispatch rate over execution wall clock, and MeanJobEvents the
	// mean per computed job.
	EventsFired   uint64  `json:"events_fired"`
	EventsPerSec  float64 `json:"events_per_sec"`
	MeanJobEvents float64 `json:"mean_job_events"`
	// EventSlabMax is the largest event-record pool any computed job's
	// kernel grew to — the event core's allocation high-water mark.
	EventSlabMax int `json:"event_slab_max"`
	// SpansObserved/SpansSampled/SpansDropped aggregate the obs tracers
	// of computed jobs; all zero when tracing is off.
	SpansObserved uint64 `json:"spans_observed,omitempty"`
	SpansSampled  uint64 `json:"spans_sampled,omitempty"`
	SpansDropped  uint64 `json:"spans_dropped,omitempty"`
	// LastBatch summarizes the most recent Run call; a repeated sweep
	// shows its cache hit rate here.
	LastBatch BatchStats `json:"last_batch"`
}

// HitRate is the lifetime fraction of jobs served from cache.
func (s Stats) HitRate() float64 {
	if s.Done == 0 {
		return 0
	}
	return float64(s.CacheHits+s.DiskHits) / float64(s.Done)
}

// inflight coalesces concurrent requests for the same job hash: the
// first arrival computes, the rest wait for done.
type inflight struct {
	done chan struct{}
	res  *Result
	err  error
}

// Engine schedules jobs over a worker pool with memoized results. An
// Engine is safe for concurrent use; results are deterministic per job
// regardless of worker count or scheduling order.
type Engine struct {
	workers int
	// sem bounds concurrently executing jobs engine-wide. Each Run call
	// spawns its own dispatch goroutines, but every executor invocation
	// first takes a slot here, so overlapping Run/RunOneCtx callers
	// share the Workers budget instead of multiplying it.
	sem     chan struct{}
	cache   *resultCache
	execs   map[string]Executor
	onEvent func(Event)

	mu     sync.Mutex
	flight map[string]*inflight
	stats  Stats
	// obsLatency/obsCount fold computed jobs' span histograms into
	// engine-lifetime per-class aggregates (guarded by mu; nil slots
	// until a traced job of that class completes).
	obsLatency [coherence.NumTxn]*stats.ExpHistogram
	obsCount   [coherence.NumTxn]uint64

	subMu   sync.Mutex
	subs    map[int]chan Event
	nextSub int
}

// New returns an engine. The default executor (Job.Kind == "") runs a
// standalone simulation of the job's machine over its benchmark's
// Table 2 profile.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	execs := map[string]Executor{"": standaloneExecutor(opts.Trace)}
	for k, fn := range opts.Executors {
		execs[k] = fn
	}
	e := &Engine{
		workers: w,
		sem:     make(chan struct{}, w),
		cache:   newCache(opts.CacheDir),
		execs:   execs,
		onEvent: opts.OnEvent,
		flight:  make(map[string]*inflight),
		subs:    make(map[int]chan Event),
	}
	e.stats.Workers = w
	return e
}

// Workers returns the configured pool size.
func (e *Engine) Workers() int { return e.workers }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	if s.Computed > 0 {
		s.MeanJobWall = s.ExecWall / time.Duration(s.Computed)
		s.MeanJobEvents = float64(s.EventsFired) / float64(s.Computed)
		if secs := s.ExecWall.Seconds(); secs > 0 {
			s.SimNSPerSec = float64(s.SimulatedPS) / 1000 / secs
			s.EventsPerSec = float64(s.EventsFired) / secs
		}
	}
	return s
}

func (e *Engine) emit(ev Event) {
	if e.onEvent != nil {
		e.onEvent(ev)
	}
	e.subMu.Lock()
	for _, ch := range e.subs {
		select {
		case ch <- ev:
		default:
			// A slow subscriber drops events rather than stalling the
			// workers; live progress streams tolerate gaps.
		}
	}
	e.subMu.Unlock()
}

// Subscribe attaches a progress-event listener and returns its channel
// plus a cancel function. Events are delivered best-effort: a
// subscriber that falls more than buf events behind misses the
// overflow instead of blocking the worker pool. Cancel closes the
// channel; it is safe to call more than once.
func (e *Engine) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan Event, buf)
	e.subMu.Lock()
	id := e.nextSub
	e.nextSub++
	e.subs[id] = ch
	e.subMu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			e.subMu.Lock()
			delete(e.subs, id)
			e.subMu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}

// Adopt inserts a result computed elsewhere (a cluster peer) into the
// engine's cache tiers after verifying its integrity: the stored hash
// must be well-formed and must equal the job's recomputed content
// hash, so a corrupt or mislabeled artifact can never enter the cache
// under a foreign key. Adopted results are indistinguishable from
// locally computed ones — byte-identical by construction — and serve
// subsequent Lookup and Run calls as memory hits.
func (e *Engine) Adopt(res *Result) error {
	if res == nil {
		return fmt.Errorf("sweep: adopt nil result")
	}
	if !ValidHash(res.Hash) {
		return fmt.Errorf("sweep: adopt: malformed hash %q", res.Hash)
	}
	if got := res.Job.Hash(); got != res.Hash {
		return fmt.Errorf("sweep: adopt: hash %s does not match job content hash %s", res.Hash, got)
	}
	if perr := e.cache.put(res); perr != nil {
		// Mirror compute: the memory tier holds it; disk is best-effort.
		e.emit(Event{Type: EventError, Job: res.Job, Hash: res.Hash, Err: perr})
	}
	return nil
}

// Lookup returns the cached result for a job content hash, consulting
// memory then the on-disk cache, without computing anything or
// touching the engine's counters. It is the idempotent GET-by-hash
// path of the serving layer.
func (e *Engine) Lookup(hash string) (*Result, Source, bool) {
	res, src := e.cache.get(hash)
	if res == nil {
		return nil, SourceComputed, false
	}
	return res, src, true
}

// Run executes jobs over the worker pool and returns their results in
// input order. Identical jobs are computed once; previously seen jobs
// are served from the cache. On context cancellation Run stops
// dispatching, waits for in-progress jobs, and returns ctx.Err();
// undispatched slots are left nil. If an executor fails, the first
// error is returned alongside the results that did complete.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]*Result, error) {
	results, _, err := e.RunEach(ctx, jobs)
	return results, err
}

// RunEach is Run plus provenance: the second slice reports, per job,
// whether the result was computed fresh, shared from memory, or
// replayed from disk. Slots for jobs a cancelled context left
// undispatched hold a nil result and SourceComputed.
func (e *Engine) RunEach(ctx context.Context, jobs []Job) ([]*Result, []Source, error) {
	results := make([]*Result, len(jobs))
	sources := make([]Source, len(jobs))
	if len(jobs) == 0 {
		return results, sources, nil
	}
	// A context that is already dead admits no work at all: callers
	// with an expired deadline must not charge the pool.
	if err := ctx.Err(); err != nil {
		return results, sources, err
	}

	e.mu.Lock()
	e.stats.Queued += len(jobs)
	e.mu.Unlock()

	var (
		batchMu sync.Mutex
		batch   BatchStats
		firstEr error
	)
	batch.Jobs = len(jobs)
	start := time.Now()

	idx := make(chan int)
	var wg sync.WaitGroup
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, src, err := e.do(jobs[i])
				results[i] = res
				sources[i] = src
				batchMu.Lock()
				switch {
				case err != nil:
					batch.Errors++
					if firstEr == nil {
						firstEr = err
					}
				case src == SourceMemory:
					batch.CacheHits++
				case src == SourceDisk:
					batch.DiskHits++
				default:
					batch.Computed++
				}
				batchMu.Unlock()
			}
		}()
	}

	var ctxErr error
	dispatched := 0
dispatch:
	for i := range jobs {
		// Check cancellation with priority: when the context is already
		// dead, never race it against a ready worker.
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break dispatch
		}
		select {
		case idx <- i:
			dispatched++
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	batch.Wall = time.Since(start)
	e.mu.Lock()
	// Jobs the cancellation left undispatched leave the system without
	// running; uncount them so Queued keeps meaning "entered the pool".
	e.stats.Queued -= len(jobs) - dispatched
	e.stats.LastBatch = batch
	e.mu.Unlock()

	if ctxErr != nil {
		return results, sources, ctxErr
	}
	return results, sources, firstEr
}

// RunOne computes (or recalls) a single job on the calling goroutine.
func (e *Engine) RunOne(job Job) (*Result, error) {
	res, _, err := e.RunOneCtx(context.Background(), job)
	return res, err
}

// RunOneCtx computes (or recalls) a single job on the calling
// goroutine, reporting the result's provenance. A context that is
// already cancelled or past its deadline returns immediately without
// executing; once execution has begun it runs to completion (the
// simulators are not preemptible) and the result is cached for the
// next request.
func (e *Engine) RunOneCtx(ctx context.Context, job Job) (*Result, Source, error) {
	if err := ctx.Err(); err != nil {
		return nil, SourceComputed, err
	}
	e.mu.Lock()
	e.stats.Queued++
	e.mu.Unlock()
	return e.do(job)
}

// do is the memoized single-job path: cache lookup, in-flight
// coalescing, then execution.
func (e *Engine) do(job Job) (*Result, Source, error) {
	job = job.Normalize()
	hash := job.Hash()

	if res, src := e.cache.get(hash); res != nil {
		e.mu.Lock()
		e.stats.Done++
		if src == SourceDisk {
			e.stats.DiskHits++
		} else {
			e.stats.CacheHits++
		}
		e.mu.Unlock()
		e.emit(Event{Type: EventHit, Job: job, Hash: hash})
		return res, src, nil
	}

	e.mu.Lock()
	if fl, ok := e.flight[hash]; ok {
		// Another worker is computing this exact job; wait and share.
		e.mu.Unlock()
		<-fl.done
		e.mu.Lock()
		e.stats.Done++
		if fl.err != nil {
			e.stats.Errors++
		} else {
			e.stats.CacheHits++
		}
		e.mu.Unlock()
		if fl.err != nil {
			return nil, SourceComputed, fl.err
		}
		e.emit(Event{Type: EventHit, Job: job, Hash: hash})
		return fl.res, SourceMemory, nil
	}
	fl := &inflight{done: make(chan struct{})}
	e.flight[hash] = fl
	e.stats.Running++
	e.mu.Unlock()

	res, err := e.compute(job, hash)
	fl.res, fl.err = res, err
	e.mu.Lock()
	delete(e.flight, hash)
	e.stats.Running--
	e.stats.Done++
	if err != nil {
		e.stats.Errors++
	} else {
		e.stats.Computed++
	}
	e.mu.Unlock()
	close(fl.done)
	return res, SourceComputed, err
}

// compute runs the job's executor and stores the result. The
// engine-wide semaphore is taken around the executor call (never while
// waiting on another job), so it cannot deadlock: holders only do
// finite local work.
func (e *Engine) compute(job Job, hash string) (*Result, error) {
	exec, ok := e.execs[job.Kind]
	if !ok {
		err := fmt.Errorf("sweep: no executor for job kind %q", job.Kind)
		e.emit(Event{Type: EventError, Job: job, Hash: hash, Err: err})
		return nil, err
	}
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	e.emit(Event{Type: EventStart, Job: job, Hash: hash})
	start := time.Now()
	m, err := exec(job)
	wall := time.Since(start)
	if err != nil {
		e.emit(Event{Type: EventError, Job: job, Hash: hash, Err: err})
		return nil, fmt.Errorf("sweep: job %s: %w", job, err)
	}
	res := newResult(job, hash, m)
	if perr := e.cache.put(res); perr != nil {
		// Disk artifacts are best-effort; memory already holds it.
		e.emit(Event{Type: EventError, Job: job, Hash: hash, Err: perr})
	}
	e.mu.Lock()
	e.stats.ExecWall += wall
	e.stats.SimulatedPS += int64(m.ExecTime)
	e.stats.EventsFired += m.EventsFired
	if m.EventSlab > e.stats.EventSlabMax {
		e.stats.EventSlabMax = m.EventSlab
	}
	if tr := m.Trace; tr != nil {
		for t := 0; t < coherence.NumTxn; t++ {
			txn := coherence.Txn(t)
			c := tr.ClassCount(txn)
			if c == 0 {
				continue
			}
			e.obsCount[t] += c
			if e.obsLatency[t] == nil {
				e.obsLatency[t] = obs.LatencyHist()
			}
			// Same bucket layout by construction; Merge cannot fail.
			e.obsLatency[t].Merge(tr.ClassLatency(txn))
		}
		e.stats.SpansObserved += tr.SpansObserved()
		e.stats.SpansSampled += tr.SpansSampled()
		e.stats.SpansDropped += tr.SpansDropped()
	}
	e.mu.Unlock()
	e.emit(Event{Type: EventDone, Job: job, Hash: hash, Wall: wall})
	return res, nil
}

// ClassAgg is the engine-lifetime span aggregate for one transaction
// class: how many spans the class saw across all computed jobs and
// their latency histogram (nanoseconds).
type ClassAgg struct {
	Class   string
	Spans   uint64
	Latency *stats.ExpHistogram
}

// TraceAgg snapshots the per-class span aggregates folded from
// computed jobs' tracers, in transaction-class order, skipping classes
// no span has hit. Histograms are clones; callers may keep them.
func (e *Engine) TraceAgg() []ClassAgg {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []ClassAgg
	for t := 0; t < coherence.NumTxn; t++ {
		if e.obsCount[t] == 0 {
			continue
		}
		out = append(out, ClassAgg{
			Class:   coherence.Txn(t).String(),
			Spans:   e.obsCount[t],
			Latency: e.obsLatency[t].Clone(),
		})
	}
	return out
}
