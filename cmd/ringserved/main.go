// Command ringserved runs the simulation-as-a-service HTTP layer: a
// long-lived daemon that accepts sweep jobs, batches, and named paper
// experiments over HTTP/JSON, schedules them through one shared
// memoizing engine, and streams progress as Server-Sent Events.
//
// Usage:
//
//	ringserved -addr :8080 -cachedir .servecache
//	ringserved -queue 128 -inflight 8 -discipline sjf
//	ringserved -tenants tenants.json -allowanon=false
//
// Multi-tenant mode (see DESIGN.md §13): -tenants loads API keys,
// fair-queue weights, token-bucket rate limits, and admission quotas;
// requests authenticate with Authorization: Bearer <key> and the
// admission queue serves tenants by weighted deficit round robin.
// Without -tenants every request maps to one anonymous tenant and
// behavior is identical to earlier versions.
//
// Cluster modes (see DESIGN.md §12): one daemon becomes the
// coordinator of a worker fleet, placing jobs by consistent hashing on
// their content hashes and stealing them onto live workers when one is
// lost; the public API is unchanged. Workers join the coordinator and
// execute forwarded jobs on their local engines.
//
//	ringserved -coordinator -addr :8080 -inflight 16 -workers 16
//	ringserved -worker -join http://coord:8080 -addr :8081 -workers 2
//
// Routes (see DESIGN.md §9):
//
//	POST /v1/jobs                  submit one simulation point
//	POST /v1/sweeps                submit a batch
//	GET  /v1/experiments           list named experiments
//	POST /v1/experiments/{name}    run a named experiment
//	GET  /v1/results/{hash}        idempotent lookup by content hash
//	                               (cluster nodes fall back to peers)
//	GET  /v1/results/{hash}/trace  Perfetto trace of a traced run (needs -tracesample)
//	GET  /v1/events                live progress stream (SSE)
//	GET  /v1/usage                 the caller's usage record (?all=1: every tenant)
//	GET  /healthz, /metrics        liveness and Prometheus metrics
//	/internal/v1/*                 cluster plane (exec, results, join,
//	                               heartbeat, leave, health)
//
// SIGINT/SIGTERM begin a graceful drain: new submissions receive 503
// while queued and in-flight requests run to completion (bounded by
// -draintimeout), then the process exits 0. A draining worker leaves
// the coordinator's ring immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the DefaultServeMux, served only on -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	olog "repro/internal/obs/slog"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/tenant"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ringserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "engine worker pool size (0 = all CPUs); in -coordinator mode this is the dispatch parallelism and should cover the fleet's total capacity")
		cacheDir     = fs.String("cachedir", "", "persist results to this content-addressed cache directory")
		queueDepth   = fs.Int("queue", 64, "admission queue depth (overflow returns 429)")
		maxInFlight  = fs.Int("inflight", 0, "max concurrently executing requests (0 = all CPUs)")
		discipline   = fs.String("discipline", "fcfs", "admission queue discipline: fcfs | sjf")
		maxDeadline  = fs.Duration("maxdeadline", 2*time.Minute, "cap on client-requested deadlines")
		drainTimeout = fs.Duration("draintimeout", 30*time.Second, "max wait for in-flight work on shutdown")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		traceSample  = fs.Int("tracesample", 0, "trace computed jobs, recording every k-th transaction span (0 = tracing off)")
		tenantsFile  = fs.String("tenants", "", "tenants JSON file: API keys, fair-queue weights, rate limits, quotas (empty = anonymous single-tenant mode)")
		allowAnon    = fs.Bool("allowanon", true, "accept keyless requests as the anonymous tenant; -allowanon=false requires -tenants and rejects requests without a known API key")

		version   = fs.Bool("version", false, "print build version and exit")
		logLevel  = fs.String("loglevel", "info", "structured JSON log level on stderr: debug | info | warn | error")
		reqTraces = fs.Int("reqtrace", reqtrace.DefaultCapacity, "retain span trees for this many recent requests, served at GET /v1/requests/{id}/trace (0 = request IDs only, no span recording)")

		coordMode   = fs.Bool("coordinator", false, "run as cluster coordinator: dispatch jobs to joined workers instead of executing locally")
		workerMode  = fs.Bool("worker", false, "run as cluster worker: join a coordinator and execute forwarded jobs")
		joinURL     = fs.String("join", "", "coordinator base URL a -worker joins (e.g. http://coord:8080)")
		advertise   = fs.String("advertise", "", "base URL the coordinator dials this worker back on (default: http://127.0.0.1:<port> from -addr)")
		workerID    = fs.String("id", "", "stable worker identity on the placement ring (default: the advertise URL)")
		heartbeat   = fs.Duration("heartbeat", time.Second, "worker heartbeat period")
		hbTTL       = fs.Duration("hbttl", 5*time.Second, "coordinator: heartbeat age after which a worker is considered down")
		execTimeout = fs.Duration("exectimeout", 10*time.Minute, "coordinator: bound on one remote job execution")
		execRetries = fs.Int("execretries", 3, "coordinator: dispatch attempts per job across distinct workers")
		synthExec   = fs.Bool("synthexec", false, "register the fixed-service-time calibration executor for jobs of kind \"sleep\" (benchmarking only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "ringserved %s\n", buildinfo.Read())
		return 0
	}
	level, err := olog.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "ringserved:", err)
		return 1
	}
	if *coordMode && *workerMode {
		fmt.Fprintln(stderr, "ringserved: -coordinator and -worker are mutually exclusive")
		return 1
	}
	if *workerMode && *joinURL == "" {
		fmt.Fprintln(stderr, "ringserved: -worker requires -join <coordinator URL>")
		return 1
	}

	disc, err := serve.ParseDiscipline(*discipline)
	if err != nil {
		fmt.Fprintln(stderr, "ringserved:", err)
		return 1
	}

	var tenants *tenant.Registry
	switch {
	case *tenantsFile != "":
		tenants, err = tenant.Load(*tenantsFile, *allowAnon)
		if err != nil {
			fmt.Fprintln(stderr, "ringserved:", err)
			return 1
		}
	case !*allowAnon:
		fmt.Fprintln(stderr, "ringserved: -allowanon=false requires -tenants (otherwise no request could ever authenticate)")
		return 1
	default:
		tenants = tenant.NewAnonymous()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "ringserved:", err)
		return 1
	}
	defer ln.Close()

	// Assemble the engine, serving layer, and (in cluster modes) the
	// cluster plane around the listener.
	engOpts := sweep.Options{
		Workers:  *workers,
		CacheDir: *cacheDir,
		Trace:    obs.Config{SampleEvery: *traceSample},
	}
	srvOpts := serve.Options{
		QueueDepth:  *queueDepth,
		MaxInFlight: *maxInFlight,
		Discipline:  disc,
		MaxDeadline: *maxDeadline,
		Tenants:     tenants,
	}
	mux := http.NewServeMux()
	role := "standalone"
	switch {
	case *coordMode:
		role = "coordinator"
	case *workerMode:
		role = "worker"
		if *workerID != "" {
			// Carry the worker's identity in the service field so a
			// cross-hop trace shows which worker executed the job.
			role = "worker:" + *workerID
		}
	}
	// One tracer and one logger per process, shared by the serving
	// layer and the cluster plane so a request's serve-side and
	// cluster-side spans land in the same store and every log line
	// carries the same service field.
	rt := reqtrace.NewTracer(role, *reqTraces)
	logger := olog.New(stderr, level, "ringserved")
	srvOpts.ReqTracer = rt
	srvOpts.Logger = logger
	var (
		coord *cluster.Coordinator
		wk    *cluster.Worker
	)
	switch {
	case *coordMode:
		coord = cluster.NewCoordinator(cluster.CoordinatorOptions{
			HeartbeatTTL: *hbTTL,
			ExecTimeout:  *execTimeout,
			MaxAttempts:  *execRetries,
			Tracer:       rt,
			Logger:       logger,
		})
		// The dispatcher replaces local execution for every job kind the
		// coordinator accepts; workers decide which kinds they support.
		engOpts.Executors = map[string]sweep.Executor{
			"":                coord.Execute,
			cluster.SynthKind: coord.Execute,
		}
		srvOpts.LookupFallback = coord.LookupFallback
		srvOpts.ExtraMetrics = coord.WriteMetrics
		srvOpts.ClusterStatus = func() any { return coord.Status() }
		srvOpts.FederateMetrics = coord.FederateMetrics
	case *workerMode:
		if *synthExec {
			engOpts.Executors = map[string]sweep.Executor{cluster.SynthKind: cluster.SynthExecutor}
		}
		adv := *advertise
		if adv == "" {
			adv = defaultAdvertise(ln.Addr())
		}
		id := *workerID
		if id == "" {
			id = adv
		}
		eng := sweep.New(engOpts)
		wk, err = cluster.NewWorker(cluster.WorkerOptions{
			ID:             id,
			Engine:         eng,
			Coordinator:    *joinURL,
			Advertise:      adv,
			HeartbeatEvery: *heartbeat,
			Tracer:         rt,
			Logger:         logger,
		})
		if err != nil {
			fmt.Fprintln(stderr, "ringserved:", err)
			return 1
		}
		srvOpts.Engine = eng
		srvOpts.LookupFallback = wk.LookupFallback
	default:
		if *synthExec {
			engOpts.Executors = map[string]sweep.Executor{cluster.SynthKind: cluster.SynthExecutor}
		}
	}
	if srvOpts.Engine == nil {
		srvOpts.Engine = sweep.New(engOpts)
	}
	eng := srvOpts.Engine
	if coord != nil {
		coord.BindEngine(eng)
		mux.Handle("/internal/v1/", coord.Handler())
	}
	if wk != nil {
		mux.Handle("/internal/v1/", wk.Handler())
	}
	srv := serve.New(srvOpts)
	mux.Handle("/", srv.Handler())

	// The profiling endpoints live on their own listener so the service
	// port never exposes them: the main handler uses a dedicated mux,
	// leaving the DefaultServeMux (where net/http/pprof registers) to
	// this debug server only.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "ringserved: pprof:", err)
			return 1
		}
		fmt.Fprintf(stdout, "ringserved: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(stderr, "ringserved: pprof:", err)
			}
		}()
		defer pln.Close()
	}

	tenantNote := "anonymous"
	if *tenantsFile != "" {
		n := len(tenants.All())
		if tenants.AllowAnon() {
			n-- // don't count the implicit anonymous tenant
		}
		tenantNote = fmt.Sprintf("%d tenants", n)
		if tenants.AllowAnon() {
			tenantNote += "+anon"
		}
	}
	httpSrv := &http.Server{Handler: mux}
	fmt.Fprintf(stdout, "ringserved: %s listening on %s (%d workers, queue %d, %s, %s)\n",
		role, ln.Addr(), eng.Workers(), *queueDepth, disc, tenantNote)

	// The worker's membership loop runs until drain begins, so the
	// leave fires before in-flight work finishes, steering the
	// coordinator away early.
	memberCtx, stopMember := context.WithCancel(context.Background())
	defer stopMember()
	memberDone := make(chan struct{})
	if wk != nil {
		go func() { defer close(memberDone); wk.Run(memberCtx) }()
	} else {
		close(memberDone)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "ringserved:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: reject new work, finish what was admitted, then
	// close the listener and exit.
	fmt.Fprintln(stdout, "ringserved: draining")
	stopMember()
	<-memberDone
	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(stderr, "ringserved: drain:", err)
		httpSrv.Close()
		return 1
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "ringserved: shutdown:", err)
		return 1
	}
	st := eng.Stats()
	fmt.Fprintf(stdout, "ringserved: drained (%d jobs done, %d computed, %.0f%% cache hits)\n",
		st.Done, st.Computed, 100*st.HitRate())
	return 0
}

// defaultAdvertise derives a dial-back URL from the listen address:
// wildcard hosts become the loopback (single-host fleets, tests, CI);
// multi-host deployments must pass -advertise explicitly.
func defaultAdvertise(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	if strings.Contains(host, ":") {
		host = "[" + host + "]"
	}
	return fmt.Sprintf("http://%s:%s", host, port)
}
