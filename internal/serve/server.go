// Package serve is the simulation-as-a-service layer: an HTTP/JSON
// front end over the sweep engine. Clients submit simulation points
// (single jobs, batches, or named paper experiments); the server
// schedules them through a shared engine, so concurrent clients get
// the same singleflight and memoization economics a single sweep does
// — identical jobs compute once, repeats are cache hits, results are
// addressable by job content hash.
//
// The layer adds what a network service needs on top: bounded
// admission with weighted deficit-round-robin fair queueing across
// tenants and FCFS or shortest-job-first order within one (429 on
// overflow, with Retry-After), API-key authentication with per-tenant
// rate limits, quotas, and usage metering, per-request deadlines
// propagated as context cancellation into the engine (504 on expiry),
// idempotent GET-by-hash lookup backed by the on-disk cache,
// Server-Sent-Events progress streaming, Prometheus metrics, and
// graceful drain.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/obs/reqtrace"
	olog "repro/internal/obs/slog"
	"repro/internal/sweep"
	"repro/internal/tenant"
)

// Options configures a Server.
type Options struct {
	// Engine is the shared sweep engine; nil constructs a default one.
	Engine *sweep.Engine
	// QueueDepth bounds the admission queue (default 64); requests
	// beyond it receive 429.
	QueueDepth int
	// MaxInFlight bounds concurrently executing requests (default
	// runtime.NumCPU()). Simulation concurrency is bounded separately:
	// however many requests hold slots, the shared engine executes at
	// most Engine.Workers jobs at once, so MaxInFlight x Workers never
	// oversubscribes the host.
	MaxInFlight int
	// Discipline selects the admission queue's service order.
	Discipline Discipline
	// MaxDeadline caps client-requested deadlines (default 2 minutes).
	MaxDeadline time.Duration
	// LookupFallback, when set, extends GET /v1/results/{hash} beyond
	// the engine's caches: on a local miss the handler consults it with
	// the request context (a cluster node uses it to fetch the result
	// from its peers). It must never compute.
	LookupFallback func(ctx context.Context, hash string) (*sweep.Result, sweep.Source, bool)
	// ExtraMetrics, when set, is invoked at the end of /metrics to
	// append additional exposition-format series (e.g. the cluster
	// coordinator's ringsim_cluster_* family).
	ExtraMetrics func(w io.Writer)
	// Tenants is the tenant registry behind API-key authentication,
	// rate limits, quotas, and fair-queue weights. Nil means an
	// anonymous single-tenant registry: no keys, no limits — exactly
	// the pre-multi-tenant behavior.
	Tenants *tenant.Registry
	// ReqTracer records request-scoped span trees (admission, engine
	// run, cluster dispatch, cache lookup) retrievable via GET
	// /v1/requests/{id}/trace. Nil turns span recording off; request
	// IDs are still issued and echoed, because error correlation is
	// part of the API contract, not an observability option.
	ReqTracer *reqtrace.Tracer
	// Logger emits structured request logs (one JSON line per
	// request, tagged with request ID, tenant, and job hash). Nil
	// discards.
	Logger *olog.Logger
	// ClusterStatus, when set, backs GET /v1/cluster/status — the
	// coordinator supplies its membership/dispatch view here. Nil
	// answers 404 (this node is not a coordinator).
	ClusterStatus func() any
	// FederateMetrics, when set, backs GET /v1/cluster/metrics: it
	// receives a renderer for this server's own exposition and must
	// write the merged, worker-labeled fleet exposition. Nil answers
	// 404.
	FederateMetrics func(ctx context.Context, self func(io.Writer), w io.Writer)
}

// Server is the HTTP serving layer. Construct with New; it is safe
// for concurrent use.
type Server struct {
	eng         *sweep.Engine
	adm         *admitter
	met         *metricsRegistry
	tenants     *tenant.Registry
	mux         *http.ServeMux
	maxDeadline time.Duration
	fallback    func(ctx context.Context, hash string) (*sweep.Result, sweep.Source, bool)
	extraMet    func(w io.Writer)
	rt          *reqtrace.Tracer
	log         *olog.Logger
	cstatus     func() any
	federate    func(ctx context.Context, self func(io.Writer), w io.Writer)
	start       time.Time

	drainOnce sync.Once
	drainCh   chan struct{}
}

// New returns a Server over the engine.
func New(opts Options) *Server {
	eng := opts.Engine
	if eng == nil {
		eng = sweep.New(sweep.Options{})
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	inflight := opts.MaxInFlight
	if inflight <= 0 {
		inflight = runtime.NumCPU()
	}
	maxDeadline := opts.MaxDeadline
	if maxDeadline <= 0 {
		maxDeadline = 2 * time.Minute
	}
	reg := opts.Tenants
	if reg == nil {
		reg = tenant.NewAnonymous()
	}
	lg := opts.Logger
	if lg == nil {
		lg = olog.Nop()
	}
	s := &Server{
		eng:         eng,
		adm:         newAdmitter(inflight, depth, opts.Discipline),
		met:         newMetricsRegistry(),
		tenants:     reg,
		mux:         http.NewServeMux(),
		maxDeadline: maxDeadline,
		fallback:    opts.LookupFallback,
		extraMet:    opts.ExtraMetrics,
		rt:          opts.ReqTracer,
		log:         lg,
		cstatus:     opts.ClusterStatus,
		federate:    opts.FederateMetrics,
		start:       time.Now(),
		drainCh:     make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.instrument("jobs", s.withTenant(s.handleJob)))
	s.mux.HandleFunc("POST /v1/sweeps", s.instrument("sweeps", s.withTenant(s.handleSweep)))
	s.mux.HandleFunc("GET /v1/experiments", s.instrument("experiments", s.withTenant(s.handleExperimentList)))
	s.mux.HandleFunc("POST /v1/experiments/{name}", s.instrument("experiments", s.withTenant(s.handleExperiment)))
	s.mux.HandleFunc("GET /v1/results/{hash}", s.instrument("results", s.withTenant(s.handleResult)))
	s.mux.HandleFunc("GET /v1/results/{hash}/trace", s.instrument("trace", s.withTenant(s.handleResultTrace)))
	s.mux.HandleFunc("GET /v1/events", s.instrument("events", s.withTenant(s.handleEvents)))
	s.mux.HandleFunc("GET /v1/usage", s.instrument("usage", s.withTenant(s.handleUsage)))
	s.mux.HandleFunc("GET /v1/requests/{id}/trace", s.instrument("reqtrace", s.withTenant(s.handleRequestTrace)))
	s.mux.HandleFunc("GET /v1/cluster/status", s.instrument("cluster", s.handleClusterStatus))
	s.mux.HandleFunc("GET /v1/cluster/metrics", s.instrument("clustermetrics", s.handleClusterMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return s
}

// tenantCtxKey carries the authenticated tenant through the request
// context.
type tenantCtxKey struct{}

// bearerKey extracts the client's API key: the Authorization Bearer
// token, or the api_key query parameter as a fallback for clients
// that cannot set headers (EventSource). Empty means anonymous.
func bearerKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if key, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
		return h // a malformed scheme fails authentication below
	}
	return r.URL.Query().Get("api_key")
}

// withTenant authenticates the request against the tenant registry
// and stores the tenant record in the request context. Unknown keys
// answer 401; so does a missing key when anonymous access is off.
func (s *Server) withTenant(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := s.rt.StartChild(reqtrace.SpanObj(r.Context()), "auth")
		tn, err := s.tenants.Authenticate(bearerKey(r))
		if err != nil {
			sp.SetAttr("outcome", "unauthorized")
			sp.End()
			w.Header().Set("WWW-Authenticate", `Bearer realm="ringsim"`)
			errorCtx(r.Context(), w, http.StatusUnauthorized, "%v", err)
			return
		}
		sp.SetAttr("tenant", tn.ID)
		sp.End()
		metaFrom(r.Context()).set(tn.ID, "")
		h(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tn)))
	}
}

// tenantFrom recovers the authenticated tenant; handlers reached
// outside withTenant fall back to anonymous.
func tenantFrom(ctx context.Context) tenant.Tenant {
	if tn, ok := ctx.Value(tenantCtxKey{}).(tenant.Tenant); ok {
		return tn
	}
	return tenant.Tenant{ID: tenant.AnonymousID, Weight: 1}
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine returns the shared sweep engine.
func (s *Server) Engine() *sweep.Engine { return s.eng }

// BeginDrain stops admitting new work: submissions receive 503 and
// event streams close. Queued and in-flight requests run to
// completion. Safe to call more than once.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.log.Info("drain begin")
		s.adm.beginDrain()
		close(s.drainCh)
	})
}

// Drain blocks until every admitted request has finished, or the
// context dies.
func (s *Server) Drain(ctx context.Context) error { return s.adm.drainWait(ctx) }

func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// statusWriter captures the response code for metrics. It deliberately
// does not implement http.Flusher itself: instead it exposes Unwrap so
// http.NewResponseController (and canFlush) reach the underlying
// writer's Flush — a writer that cannot flush stays detectable.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// Unwrap exposes the wrapped writer for http.NewResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// canFlush walks the Unwrap chain looking for a writer that really
// implements http.Flusher, so the SSE endpoint can refuse up front
// instead of buffering forever behind a non-flushing wrapper.
func canFlush(w http.ResponseWriter) bool {
	for {
		switch v := w.(type) {
		case http.Flusher:
			return true
		case interface{ Unwrap() http.ResponseWriter }:
			w = v.Unwrap()
		default:
			return false
		}
	}
}

// reqMeta is the mutable per-request record instrument shares with
// the layers below it: middlewares and handlers fill in what they
// learn (who the tenant is, which job hash ran) and instrument folds
// it into the request's structured log line after the handler returns.
type reqMeta struct {
	mu      sync.Mutex
	tenant  string
	jobHash string
}

type reqMetaKey struct{}

func metaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(reqMetaKey{}).(*reqMeta)
	return m
}

func (m *reqMeta) set(tenant, jobHash string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if tenant != "" {
		m.tenant = tenant
	}
	if jobHash != "" {
		m.jobHash = jobHash
	}
	m.mu.Unlock()
}

func (m *reqMeta) get() (tenant, jobHash string) {
	if m == nil {
		return "", ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenant, m.jobHash
}

// instrument wraps a handler with the request-scoped observability
// envelope: a request ID (client-supplied via X-Ringsim-Request when
// well-formed, minted otherwise) echoed on the response and carried
// down the context, a root trace span on API endpoints, latency and
// status-code accounting, and one structured log line per request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	// Scrape and liveness endpoints are polled forever by machines;
	// tracing and logging them would drown the signal in probes.
	quiet := endpoint == "metrics" || endpoint == "healthz" || endpoint == "clustermetrics"
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		begin := time.Now()

		reqID := r.Header.Get(reqtrace.HeaderRequest)
		if !reqtrace.ValidID(reqID) {
			reqID = s.rt.NewTraceID()
		}
		w.Header().Set(reqtrace.HeaderRequest, reqID)
		meta := &reqMeta{}
		ctx := context.WithValue(r.Context(), reqMetaKey{}, meta)
		ctx = reqtrace.WithRequestID(ctx, reqID)
		var root *reqtrace.Span
		if !quiet {
			root = s.rt.StartRoot(reqID, endpoint)
			root.SetAttr("method", r.Method)
			ctx = reqtrace.WithSpan(ctx, root)
		}
		r = r.WithContext(ctx)

		h(sw, r)

		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		dur := time.Since(begin)
		root.SetAttr("status", strconv.Itoa(sw.code))
		root.End()
		s.met.observe(endpoint, sw.code, dur)
		if !quiet {
			// Per-request access lines are debug-level: at cache-hit
			// serving rates an always-on line would dominate the request
			// cost (see BENCH_8). Failures escalate so operators see them
			// at the production (info/warn) level.
			level := slog.LevelDebug
			switch {
			case sw.code >= 500:
				level = slog.LevelWarn
			case sw.code >= 400:
				level = slog.LevelInfo
			}
			if s.log.Enabled(r.Context(), level) {
				tn, hash := meta.get()
				attrs := []any{
					olog.KeyRequest, reqID,
					"endpoint", endpoint,
					"method", r.Method,
					"status", sw.code,
					"dur_ms", float64(dur.Microseconds()) / 1000,
				}
				if tn != "" {
					attrs = append(attrs, olog.KeyTenant, tn)
				}
				if hash != "" {
					attrs = append(attrs, olog.KeyJobHash, hash)
				}
				s.log.Log(r.Context(), level, "request", attrs...)
			}
		}
	}
}

// errorBody is the uniform error envelope. RequestID correlates the
// rejection with its trace and log lines — clients quote it back, and
// GET /v1/requests/{id}/trace explains what happened to the request.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError answers an error without request context (used only
// where no request flows, e.g. tests); handlers use errorCtx so every
// error body carries the request ID.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// errorCtx answers an error tagged with the request ID carried by ctx.
func errorCtx(ctx context.Context, w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{
		Error:     fmt.Sprintf(format, args...),
		RequestID: reqtrace.RequestID(ctx),
	})
}

// requestContext derives the job context: the client's disconnect
// context plus an optional deadline from ?deadline_ms= or the
// X-Deadline-Ms header, capped at Options.MaxDeadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	raw := r.URL.Query().Get("deadline_ms")
	if raw == "" {
		raw = r.Header.Get("X-Deadline-Ms")
	}
	if raw == "" {
		ctx, cancel := context.WithCancel(r.Context())
		return ctx, cancel, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		return nil, nil, fmt.Errorf("bad deadline_ms %q: want a positive integer", raw)
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.maxDeadline {
		d = s.maxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// JobResult is one job's serialized outcome.
type JobResult struct {
	Hash    string                `json:"hash"`
	Job     sweep.Job             `json:"job"`
	Source  string                `json:"source"`
	Cached  bool                  `json:"cached"`
	Summary sweep.Summary         `json:"summary"`
	Metrics *core.MetricsSnapshot `json:"metrics,omitempty"`
}

func jobResult(res *sweep.Result, src sweep.Source, full bool) JobResult {
	jr := JobResult{
		Hash:    res.Hash,
		Job:     res.Job,
		Source:  src.String(),
		Cached:  src != sweep.SourceComputed,
		Summary: res.Summary(),
	}
	if full {
		snap := res.Snapshot
		jr.Metrics = &snap
	}
	return jr
}

// SweepResponse is the batch (and named-experiment) response.
type SweepResponse struct {
	Experiment string      `json:"experiment,omitempty"`
	Jobs       int         `json:"jobs"`
	Computed   int         `json:"computed"`
	CacheHits  int         `json:"cache_hits"`
	DiskHits   int         `json:"disk_hits"`
	WallNS     int64       `json:"wall_ns"`
	Results    []JobResult `json:"results"`
}

// jobCost estimates one job's work for the shortest-job discipline:
// simulated references scale with processors times stream length.
func jobCost(jobs []sweep.Job) int64 {
	var cost int64
	for _, j := range jobs {
		j = j.Normalize()
		// A malformed job (a negative stream length) fails as soon as it
		// runs; pricing it below zero would grant its tenant credit.
		cost += max(0, int64(j.CPUs)*int64(j.DataRefsPerCPU))
	}
	return cost
}

// rejectBusy answers 429 with a Retry-After hint: the tenant's token
// refill interval when it has a configured rate, else one second.
func (s *Server) rejectBusy(ctx context.Context, w http.ResponseWriter, tn tenant.Tenant, format string, args ...any) {
	retry := s.tenants.RefillInterval(tn.ID)
	if retry <= 0 {
		retry = time.Second
	}
	w.Header().Set("Retry-After", retryAfterHeader(retry))
	s.tenants.Record(tn.ID, tenant.Usage{Rejected: 1})
	errorCtx(ctx, w, http.StatusTooManyRequests, format, args...)
}

// runAdmitted schedules jobs through the tenant's rate limit,
// admission control, and the engine, honoring ctx as the request
// deadline. The engine call runs in its own goroutine: when the
// deadline fires mid-run the handler answers 504 immediately while
// undispatched jobs are cancelled and in-progress ones finish into
// the cache (work conservation). Accepted work is metered against the
// tenant whether it succeeds or errors.
func (s *Server) runAdmitted(ctx context.Context, w http.ResponseWriter, tn tenant.Tenant, jobs []sweep.Job) ([]*sweep.Result, []sweep.Source, bool) {
	// The admit span covers the whole admission pipeline: rate check,
	// then DRR queue wait — its duration is the queue-wait time, its
	// outcome says which gate refused (or that the grant happened).
	admitSpan := s.rt.StartChild(reqtrace.SpanObj(ctx), "admit")
	admitSpan.SetAttr("tenant", tn.ID)
	admitSpan.SetAttr("jobs", strconv.Itoa(len(jobs)))
	reject := func(outcome string) {
		admitSpan.SetAttr("outcome", outcome)
		admitSpan.End()
	}
	if ok, retry := s.tenants.Acquire(tn.ID); !ok {
		reject("rate_limited")
		w.Header().Set("Retry-After", retryAfterHeader(retry))
		s.tenants.Record(tn.ID, tenant.Usage{RateLimited: 1})
		errorCtx(ctx, w, http.StatusTooManyRequests, "tenant %q rate limited; retry in %s", tn.ID, retryAfterHeader(retry)+"s")
		return nil, nil, false
	}
	begin := time.Now()
	release, err := s.adm.admit(ctx, limitsFor(tn), jobCost(jobs))
	if err != nil {
		var aerr *AdmitError
		switch {
		case errors.Is(err, ErrQueueFull) && errors.As(err, &aerr):
			// The depth is the one captured at the instant of rejection,
			// not a later gauge read racing other requests.
			reject("queue_full")
			s.rejectBusy(ctx, w, tn, "admission queue full (%d queued)", aerr.Queued)
		case errors.Is(err, ErrTenantQuota) && errors.As(err, &aerr):
			reject("tenant_quota")
			s.rejectBusy(ctx, w, tn, "tenant %q admission quota exhausted (%d queued)", tn.ID, aerr.Queued)
		case errors.Is(err, ErrDraining):
			reject("draining")
			w.Header().Set("Retry-After", "1")
			errorCtx(ctx, w, http.StatusServiceUnavailable, "server draining")
		case errors.Is(err, context.DeadlineExceeded):
			reject("deadline")
			errorCtx(ctx, w, http.StatusGatewayTimeout, "deadline expired while queued; job cancelled")
		default:
			reject("error")
			errorCtx(ctx, w, http.StatusServiceUnavailable, "admission: %v", err)
		}
		return nil, nil, false
	}
	admitSpan.SetAttr("outcome", "granted")
	admitSpan.End()

	// Tag provenance after admission: both fields are hash- and
	// serialization-exempt, so identical jobs from different tenants
	// (or traced vs untraced runs) still collapse to one cache entry.
	// The run span parents everything the engine does for this request
	// — including coordinator dispatch and worker execution across the
	// cluster hop, which pick the context up from Job.TraceParent.
	runSpan := s.rt.StartChild(reqtrace.SpanObj(ctx), "run")
	traceParent := runSpan.Context().String()
	for i := range jobs {
		jobs[i].Tenant = tn.ID
		jobs[i].TraceParent = traceParent
	}

	type outcome struct {
		results []*sweep.Result
		sources []sweep.Source
		err     error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer release()
		results, sources, err := s.eng.RunEach(ctx, jobs)
		ch <- outcome{results, sources, err}
	}()

	endRun := func(outcome string) {
		runSpan.SetAttr("outcome", outcome)
		runSpan.End()
	}
	select {
	case o := <-ch:
		switch {
		case errors.Is(o.err, context.DeadlineExceeded):
			endRun("deadline")
			s.tenants.Record(tn.ID, tenant.Usage{Errors: 1, WallNS: time.Since(begin).Nanoseconds()})
			errorCtx(ctx, w, http.StatusGatewayTimeout, "deadline exceeded; undispatched jobs cancelled")
			return nil, nil, false
		case errors.Is(o.err, context.Canceled):
			// Client went away; nothing useful to write.
			endRun("canceled")
			s.tenants.Record(tn.ID, tenant.Usage{Errors: 1, WallNS: time.Since(begin).Nanoseconds()})
			return nil, nil, false
		case errors.Is(o.err, sweep.ErrUnavailable):
			// The substrate, not the request, is at fault (e.g. the
			// cluster has no live workers): retryable, so 503 with a
			// retry hint.
			endRun("unavailable")
			s.tenants.Record(tn.ID, tenant.Usage{Errors: 1, WallNS: time.Since(begin).Nanoseconds()})
			w.Header().Set("Retry-After", "1")
			errorCtx(ctx, w, http.StatusServiceUnavailable, "%v", o.err)
			return nil, nil, false
		case o.err != nil:
			endRun("error")
			s.tenants.Record(tn.ID, tenant.Usage{Errors: 1, WallNS: time.Since(begin).Nanoseconds()})
			errorCtx(ctx, w, http.StatusBadRequest, "%v", o.err)
			return nil, nil, false
		}
		u := tenant.Usage{Jobs: uint64(len(jobs)), WallNS: time.Since(begin).Nanoseconds()}
		for i, src := range o.sources {
			switch src {
			case sweep.SourceMemory:
				u.CacheHits++
			case sweep.SourceDisk:
				u.DiskHits++
			default:
				u.Computed++
				// Simulated time consumed by fresh computation, in ps.
				u.SimulatedPS += int64(o.results[i].Summary().ExecTimeUS * 1e6)
			}
		}
		runSpan.SetAttr("computed", strconv.FormatUint(u.Computed, 10))
		runSpan.SetAttr("cache_hits", strconv.FormatUint(u.CacheHits+u.DiskHits, 10))
		if len(o.results) == 1 {
			runSpan.SetAttr("hash", o.results[0].Hash)
			metaFrom(ctx).set("", o.results[0].Hash)
		}
		endRun("ok")
		s.tenants.Record(tn.ID, u)
		return o.results, o.sources, true
	case <-ctx.Done():
		// The engine keeps draining in the background; its release fires
		// when the last in-progress job completes.
		endRun("deadline")
		s.tenants.Record(tn.ID, tenant.Usage{Errors: 1, WallNS: time.Since(begin).Nanoseconds()})
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			errorCtx(ctx, w, http.StatusGatewayTimeout, "deadline exceeded; undispatched jobs cancelled")
		}
		return nil, nil, false
	}
}

// handleJob serves POST /v1/jobs: one simulation point.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var job sweep.Job
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		errorCtx(r.Context(), w, http.StatusBadRequest, "bad job: %v", err)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		errorCtx(r.Context(), w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	results, sources, ok := s.runAdmitted(ctx, w, tenantFrom(r.Context()), []sweep.Job{job})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, jobResult(results[0], sources[0], r.URL.Query().Get("full") == "1"))
}

// sweepRequest is the batch submission body.
type sweepRequest struct {
	Jobs []sweep.Job `json:"jobs"`
}

// handleSweep serves POST /v1/sweeps: a batch of points.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		errorCtx(r.Context(), w, http.StatusBadRequest, "bad sweep: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		errorCtx(r.Context(), w, http.StatusBadRequest, "sweep has no jobs")
		return
	}
	s.serveSweep(w, r, "", req.Jobs)
}

func (s *Server) serveSweep(w http.ResponseWriter, r *http.Request, name string, jobs []sweep.Job) {
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		errorCtx(r.Context(), w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	begin := time.Now()
	results, sources, ok := s.runAdmitted(ctx, w, tenantFrom(r.Context()), jobs)
	if !ok {
		return
	}
	resp := SweepResponse{
		Experiment: name,
		Jobs:       len(jobs),
		WallNS:     time.Since(begin).Nanoseconds(),
	}
	full := r.URL.Query().Get("full") == "1"
	for i, res := range results {
		switch sources[i] {
		case sweep.SourceMemory:
			resp.CacheHits++
		case sweep.SourceDisk:
			resp.DiskHits++
		default:
			resp.Computed++
		}
		resp.Results = append(resp.Results, jobResult(res, sources[i], full))
	}
	writeJSON(w, http.StatusOK, resp)
}

// experimentInfo is one catalog listing entry.
type experimentInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Jobs        int    `json:"jobs"`
}

// handleExperimentList serves GET /v1/experiments.
func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	var infos []experimentInfo
	for _, name := range ExperimentNames() {
		jobs, _ := ExpandExperiment(name, ExperimentParams{})
		infos = append(infos, experimentInfo{
			Name:        name,
			Description: namedExperiments[name].desc,
			Jobs:        len(jobs),
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleExperiment serves POST /v1/experiments/{name}: a named paper
// experiment, parameterized by ?bench=&cpus=&refs=&seed=.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p := ExperimentParams{Bench: q.Get("bench")}
	for _, f := range []struct {
		key string
		dst *int
	}{{"cpus", &p.CPUs}, {"refs", &p.Refs}} {
		if raw := q.Get(f.key); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 0 {
				errorCtx(r.Context(), w, http.StatusBadRequest, "bad %s %q", f.key, raw)
				return
			}
			*f.dst = v
		}
	}
	if raw := q.Get("seed"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			errorCtx(r.Context(), w, http.StatusBadRequest, "bad seed %q", raw)
			return
		}
		p.Seed = v
	}
	name := r.PathValue("name")
	jobs, err := ExpandExperiment(name, p)
	if err != nil {
		errorCtx(r.Context(), w, http.StatusNotFound, "%v", err)
		return
	}
	s.serveSweep(w, r, name, jobs)
}

// handleResult serves GET /v1/results/{hash}: the idempotent lookup
// path, backed by the in-memory and on-disk caches. It never computes.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	// ServeMux matches the escaped path, so {hash} can carry "../"
	// after unescaping; reject anything that is not a well-formed
	// content hash before it goes near the on-disk cache.
	if !sweep.ValidHash(hash) {
		errorCtx(r.Context(), w, http.StatusBadRequest, "bad hash %q: want 64 lowercase hex characters", hash)
		return
	}
	metaFrom(r.Context()).set("", hash)
	sp := s.rt.StartChild(reqtrace.SpanObj(r.Context()), "lookup")
	sp.SetAttr("hash", hash)
	res, src, ok := s.eng.Lookup(hash)
	if !ok && s.fallback != nil {
		// The local tiers missed; ask the fleet. The fallback verifies
		// integrity and adopts the result, so the next lookup is local.
		// It inherits the lookup span as parent, so a coordinator's
		// peer-fetch spans attach under it.
		res, src, ok = s.fallback(reqtrace.WithSpanContext(r.Context(), sp.Context()), hash)
	}
	if !ok {
		sp.SetAttr("outcome", "miss")
		sp.End()
		errorCtx(r.Context(), w, http.StatusNotFound, "no result for hash %s", hash)
		return
	}
	sp.SetAttr("source", src.String())
	sp.End()
	writeJSON(w, http.StatusOK, jobResult(res, src, r.URL.Query().Get("full") == "1"))
}

// handleResultTrace serves GET /v1/results/{hash}/trace: the result's
// Chrome-trace-event (Perfetto) JSON export. Traces exist only for
// results computed in this process with tracing enabled — the span
// ring buffers are a live observability artifact, deliberately
// excluded from the deterministic snapshot the disk cache persists —
// so cache replays from disk (or untraced runs) answer 404.
func (s *Server) handleResultTrace(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !sweep.ValidHash(hash) {
		errorCtx(r.Context(), w, http.StatusBadRequest, "bad hash %q: want 64 lowercase hex characters", hash)
		return
	}
	res, _, ok := s.eng.Lookup(hash)
	if !ok {
		errorCtx(r.Context(), w, http.StatusNotFound, "no result for hash %s", hash)
		return
	}
	tr := res.Metrics().Trace
	if tr == nil {
		errorCtx(r.Context(), w, http.StatusNotFound,
			"no trace for result %s: run was not traced in this process (enable tracing and recompute)", hash)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "trace-"+hash[:12]+".json"))
	tr.WriteTrace(w)
}

// sseEvent is the JSON payload of one progress event. Tenant and
// RequestID are the submitter provenance of the run that triggered
// the event — RequestID lets a client correlate the stream with its
// own submissions and their traces (the Job itself carries neither on
// the wire).
type sseEvent struct {
	Type      string    `json:"type"`
	Label     string    `json:"label"`
	Hash      string    `json:"hash"`
	Tenant    string    `json:"tenant,omitempty"`
	RequestID string    `json:"request_id,omitempty"`
	Job       sweep.Job `json:"job"`
	WallNS    int64     `json:"wall_ns,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// handleEvents serves GET /v1/events: the engine's live progress
// stream as Server-Sent Events. The stream closes when the client
// disconnects or the server begins draining.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if !canFlush(w) {
		errorCtx(r.Context(), w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	flusher := http.NewResponseController(w)
	if s.draining() {
		errorCtx(r.Context(), w, http.StatusServiceUnavailable, "server draining")
		return
	}
	events, cancel := s.eng.Subscribe(256)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": ringserved event stream\n\n")
	flusher.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev := <-events:
			payload := sseEvent{
				Type:   ev.Type.String(),
				Label:  ev.Job.String(),
				Hash:   ev.Hash,
				Tenant: ev.Job.Tenant,
				Job:    ev.Job,
				WallNS: ev.Wall.Nanoseconds(),
			}
			if sc, ok := reqtrace.ParseContext(ev.Job.TraceParent); ok {
				payload.RequestID = sc.TraceID
			}
			if ev.Err != nil {
				payload.Error = ev.Err.Error()
			}
			data, err := json.Marshal(payload)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", payload.Type, data); err != nil {
				return
			}
			if err := flusher.Flush(); err != nil {
				return
			}
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			if err := flusher.Flush(); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}

// usageBody is the ?all=1 form of the /v1/usage response.
type usageBody struct {
	Tenants []tenant.TenantUsage `json:"tenants"`
}

// handleUsage serves GET /v1/usage: the caller's own usage record, or
// every tenant's with ?all=1 (an operator surface — records carry no
// API keys either way).
func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("all") == "1" {
		writeJSON(w, http.StatusOK, usageBody{Tenants: s.tenants.All()})
		return
	}
	tn := tenantFrom(r.Context())
	u, ok := s.tenants.Usage(tn.ID)
	if !ok {
		errorCtx(r.Context(), w, http.StatusNotFound, "no usage for tenant %q", tn.ID)
		return
	}
	writeJSON(w, http.StatusOK, u)
}

// handleRequestTrace serves GET /v1/requests/{id}/trace: the
// request's recorded span tree — admission, engine run, and (through
// a coordinator) dispatch, worker execution, and adoption — as JSON,
// or as Chrome-trace-event JSON with ?format=chrome. Traces live in a
// bounded in-process store, so old requests age out (404).
func (s *Server) handleRequestTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !reqtrace.ValidID(id) {
		errorCtx(r.Context(), w, http.StatusBadRequest, "bad request id %q", id)
		return
	}
	if !s.rt.Enabled() {
		errorCtx(r.Context(), w, http.StatusNotFound, "request tracing is disabled on this server")
		return
	}
	doc, ok := s.rt.Get(id)
	if !ok {
		errorCtx(r.Context(), w, http.StatusNotFound, "no trace for request %s (never seen, or evicted)", id)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "request-"+id+".json"))
		doc.WriteChrome(w)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleClusterStatus serves GET /v1/cluster/status: the
// coordinator's membership and dispatch view (per-worker liveness,
// heartbeat age, inflight, steal/forward counters). A node without a
// coordinator answers 404.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if s.cstatus == nil {
		errorCtx(r.Context(), w, http.StatusNotFound, "this node is not a cluster coordinator")
		return
	}
	writeJSON(w, http.StatusOK, s.cstatus())
}

// handleClusterMetrics serves GET /v1/cluster/metrics: the
// coordinator's merged, worker-labeled exposition of the whole
// fleet's /metrics, so one scrape sees every node.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	if s.federate == nil {
		errorCtx(r.Context(), w, http.StatusNotFound, "this node is not a cluster coordinator")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.federate(r.Context(), s.renderMetrics, w)
}

// healthBody is the /healthz response.
type healthBody struct {
	Status   string  `json:"status"`
	UptimeS  float64 `json:"uptime_s"`
	Workers  int     `json:"workers"`
	Queued   int     `json:"queue_depth"`
	InFlight int     `json:"in_flight"`
}

// handleHealthz serves GET /healthz. A draining server still answers
// 200 — it is alive and finishing work — but reports status
// "draining" so load balancers can steer away.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining() {
		status = "draining"
	}
	queued, inflight := s.adm.gauges()
	writeJSON(w, http.StatusOK, healthBody{
		Status:   status,
		UptimeS:  time.Since(s.start).Seconds(),
		Workers:  s.eng.Workers(),
		Queued:   queued,
		InFlight: inflight,
	})
}

// handleMetrics serves GET /metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.renderMetrics(w)
}

// renderMetrics writes the full exposition to any writer — the same
// body /metrics serves, reused by the cluster's metrics federation as
// the coordinator's own contribution.
func (s *Server) renderMetrics(w io.Writer) {
	buildinfo.WriteMetric(w)
	queued, inflight := s.adm.gauges()
	st := s.eng.Stats()
	fmt.Fprintln(w, "# HELP ringsim_serve_queue_depth Requests waiting for admission.")
	fmt.Fprintln(w, "# TYPE ringsim_serve_queue_depth gauge")
	fmt.Fprintf(w, "ringsim_serve_queue_depth %d\n", queued)
	fmt.Fprintln(w, "# HELP ringsim_serve_in_flight Requests holding execution slots.")
	fmt.Fprintln(w, "# TYPE ringsim_serve_in_flight gauge")
	fmt.Fprintf(w, "ringsim_serve_in_flight %d\n", inflight)
	fmt.Fprintln(w, "# HELP ringsim_serve_draining Whether the server is draining.")
	fmt.Fprintln(w, "# TYPE ringsim_serve_draining gauge")
	fmt.Fprintf(w, "ringsim_serve_draining %d\n", map[bool]int{false: 0, true: 1}[s.draining()])

	fmt.Fprintln(w, "# HELP ringsim_engine_jobs_total Engine job outcomes over the server lifetime.")
	fmt.Fprintln(w, "# TYPE ringsim_engine_jobs_total counter")
	fmt.Fprintf(w, "ringsim_engine_jobs_total{state=\"queued\"} %d\n", st.Queued)
	fmt.Fprintf(w, "ringsim_engine_jobs_total{state=\"done\"} %d\n", st.Done)
	fmt.Fprintf(w, "ringsim_engine_jobs_total{state=\"computed\"} %d\n", st.Computed)
	fmt.Fprintf(w, "ringsim_engine_jobs_total{state=\"cache_hits\"} %d\n", st.CacheHits)
	fmt.Fprintf(w, "ringsim_engine_jobs_total{state=\"disk_hits\"} %d\n", st.DiskHits)
	fmt.Fprintf(w, "ringsim_engine_jobs_total{state=\"errors\"} %d\n", st.Errors)
	fmt.Fprintln(w, "# HELP ringsim_engine_running_jobs Jobs executing in the engine right now.")
	fmt.Fprintln(w, "# TYPE ringsim_engine_running_jobs gauge")
	fmt.Fprintf(w, "ringsim_engine_running_jobs %d\n", st.Running)
	fmt.Fprintln(w, "# HELP ringsim_engine_cache_hit_ratio Lifetime fraction of jobs served from cache.")
	fmt.Fprintln(w, "# TYPE ringsim_engine_cache_hit_ratio gauge")
	fmt.Fprintf(w, "ringsim_engine_cache_hit_ratio %g\n", st.HitRate())
	fmt.Fprintln(w, "# HELP ringsim_engine_exec_seconds_total Wall clock spent executing jobs, summed across workers.")
	fmt.Fprintln(w, "# TYPE ringsim_engine_exec_seconds_total counter")
	fmt.Fprintf(w, "ringsim_engine_exec_seconds_total %g\n", st.ExecWall.Seconds())
	fmt.Fprintln(w, "# HELP ringsim_engine_simulated_ns_total Simulated nanoseconds produced by computed jobs.")
	fmt.Fprintln(w, "# TYPE ringsim_engine_simulated_ns_total counter")
	fmt.Fprintf(w, "ringsim_engine_simulated_ns_total %d\n", st.SimulatedPS/1000)
	fmt.Fprintln(w, "# HELP ringsim_engine_events_fired_total Kernel events dispatched by computed jobs.")
	fmt.Fprintln(w, "# TYPE ringsim_engine_events_fired_total counter")
	fmt.Fprintf(w, "ringsim_engine_events_fired_total %d\n", st.EventsFired)
	fmt.Fprintln(w, "# HELP ringsim_engine_events_per_second Event dispatch rate over execution wall clock.")
	fmt.Fprintln(w, "# TYPE ringsim_engine_events_per_second gauge")
	fmt.Fprintf(w, "ringsim_engine_events_per_second %g\n", st.EventsPerSec)
	fmt.Fprintln(w, "# HELP ringsim_engine_events_per_job Mean kernel events per computed job.")
	fmt.Fprintln(w, "# TYPE ringsim_engine_events_per_job gauge")
	fmt.Fprintf(w, "ringsim_engine_events_per_job %g\n", st.MeanJobEvents)
	fmt.Fprintln(w, "# HELP ringsim_engine_event_slab_max Largest event-record pool any job's kernel allocated.")
	fmt.Fprintln(w, "# TYPE ringsim_engine_event_slab_max gauge")
	fmt.Fprintf(w, "ringsim_engine_event_slab_max %d\n", st.EventSlabMax)

	fmt.Fprintln(w, "# HELP ringsim_obs_spans_total Coherence-transaction spans observed by computed jobs, by class.")
	fmt.Fprintln(w, "# TYPE ringsim_obs_spans_total counter")
	fmt.Fprintf(w, "ringsim_obs_spans_total %d\n", st.SpansObserved)
	fmt.Fprintln(w, "# HELP ringsim_obs_spans_sampled_total Spans captured as full trace records.")
	fmt.Fprintln(w, "# TYPE ringsim_obs_spans_sampled_total counter")
	fmt.Fprintf(w, "ringsim_obs_spans_sampled_total %d\n", st.SpansSampled)
	fmt.Fprintln(w, "# HELP ringsim_obs_spans_dropped_total Sampled spans overwritten in the trace ring buffers before completing.")
	fmt.Fprintln(w, "# TYPE ringsim_obs_spans_dropped_total counter")
	fmt.Fprintf(w, "ringsim_obs_spans_dropped_total %d\n", st.SpansDropped)
	if agg := s.eng.TraceAgg(); len(agg) > 0 {
		fmt.Fprintln(w, "# HELP ringsim_obs_span_latency_seconds Coherence-transaction latency by class, across computed jobs.")
		fmt.Fprintln(w, "# TYPE ringsim_obs_span_latency_seconds histogram")
		for _, a := range agg {
			// The tracer's histograms are in nanoseconds; the exposition
			// contract is base units (seconds).
			bounds, counts := a.Latency.Buckets()
			var cum uint64
			for i, b := range bounds {
				cum += counts[i]
				fmt.Fprintf(w, "ringsim_obs_span_latency_seconds_bucket{class=%q,le=\"%g\"} %d\n", a.Class, b/1e9, cum)
			}
			cum += counts[len(counts)-1]
			fmt.Fprintf(w, "ringsim_obs_span_latency_seconds_bucket{class=%q,le=\"+Inf\"} %d\n", a.Class, cum)
			fmt.Fprintf(w, "ringsim_obs_span_latency_seconds_sum{class=%q} %g\n", a.Class, a.Latency.Sum()/1e9)
			fmt.Fprintf(w, "ringsim_obs_span_latency_seconds_count{class=%q} %d\n", a.Class, a.Latency.N())
		}
	}

	if s.rt.Enabled() {
		traces, spans, dropped := s.rt.Stats()
		fmt.Fprintln(w, "# HELP ringsim_reqtrace_traces Request traces retained in the in-process store.")
		fmt.Fprintln(w, "# TYPE ringsim_reqtrace_traces gauge")
		fmt.Fprintf(w, "ringsim_reqtrace_traces %d\n", traces)
		fmt.Fprintln(w, "# HELP ringsim_reqtrace_spans_total Request spans recorded since start.")
		fmt.Fprintln(w, "# TYPE ringsim_reqtrace_spans_total counter")
		fmt.Fprintf(w, "ringsim_reqtrace_spans_total %d\n", spans)
		fmt.Fprintln(w, "# HELP ringsim_reqtrace_spans_dropped_total Request spans evicted from the bounded store.")
		fmt.Fprintln(w, "# TYPE ringsim_reqtrace_spans_dropped_total counter")
		fmt.Fprintf(w, "ringsim_reqtrace_spans_dropped_total %d\n", dropped)
	}

	s.renderTenantMetrics(w)
	s.met.render(w)
	if s.extraMet != nil {
		s.extraMet(w)
	}
}

// renderTenantMetrics emits the ringsim_tenant_* family: per-tenant
// job outcomes, rejections, resource consumption, and live admission
// gauges. Tenants appear in registration order (the registry) and
// lexicographic order (the admitter), both deterministic.
func (s *Server) renderTenantMetrics(w io.Writer) {
	all := s.tenants.All()
	fmt.Fprintln(w, "# HELP ringsim_tenant_jobs_total Jobs served per tenant by outcome.")
	fmt.Fprintln(w, "# TYPE ringsim_tenant_jobs_total counter")
	for _, tu := range all {
		fmt.Fprintf(w, "ringsim_tenant_jobs_total{tenant=%q,state=\"computed\"} %d\n", tu.ID, tu.Usage.Computed)
		fmt.Fprintf(w, "ringsim_tenant_jobs_total{tenant=%q,state=\"cache_hits\"} %d\n", tu.ID, tu.Usage.CacheHits)
		fmt.Fprintf(w, "ringsim_tenant_jobs_total{tenant=%q,state=\"disk_hits\"} %d\n", tu.ID, tu.Usage.DiskHits)
		fmt.Fprintf(w, "ringsim_tenant_jobs_total{tenant=%q,state=\"errors\"} %d\n", tu.ID, tu.Usage.Errors)
	}
	fmt.Fprintln(w, "# HELP ringsim_tenant_rejected_total Requests refused per tenant, by which limit refused them.")
	fmt.Fprintln(w, "# TYPE ringsim_tenant_rejected_total counter")
	for _, tu := range all {
		fmt.Fprintf(w, "ringsim_tenant_rejected_total{tenant=%q,reason=\"rate\"} %d\n", tu.ID, tu.Usage.RateLimited)
		fmt.Fprintf(w, "ringsim_tenant_rejected_total{tenant=%q,reason=\"admission\"} %d\n", tu.ID, tu.Usage.Rejected)
	}
	fmt.Fprintln(w, "# HELP ringsim_tenant_simulated_ns_total Simulated nanoseconds computed on each tenant's behalf.")
	fmt.Fprintln(w, "# TYPE ringsim_tenant_simulated_ns_total counter")
	for _, tu := range all {
		fmt.Fprintf(w, "ringsim_tenant_simulated_ns_total{tenant=%q} %d\n", tu.ID, tu.Usage.SimulatedPS/1000)
	}
	fmt.Fprintln(w, "# HELP ringsim_tenant_request_seconds_total Wall clock spent serving each tenant's admitted requests.")
	fmt.Fprintln(w, "# TYPE ringsim_tenant_request_seconds_total counter")
	for _, tu := range all {
		fmt.Fprintf(w, "ringsim_tenant_request_seconds_total{tenant=%q} %g\n", tu.ID, time.Duration(tu.Usage.WallNS).Seconds())
	}
	gauges := s.adm.tenantGauges()
	fmt.Fprintln(w, "# HELP ringsim_tenant_queue_depth Requests waiting in each tenant's admission flow.")
	fmt.Fprintln(w, "# TYPE ringsim_tenant_queue_depth gauge")
	for _, g := range gauges {
		fmt.Fprintf(w, "ringsim_tenant_queue_depth{tenant=%q} %d\n", g.id, g.queued)
	}
	fmt.Fprintln(w, "# HELP ringsim_tenant_in_flight Requests holding execution slots per tenant.")
	fmt.Fprintln(w, "# TYPE ringsim_tenant_in_flight gauge")
	for _, g := range gauges {
		fmt.Fprintf(w, "ringsim_tenant_in_flight{tenant=%q} %d\n", g.id, g.inflight)
	}
}
