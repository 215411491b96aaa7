package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs/reqtrace"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The serving workload's load shape: a closed loop of two clients —
// the service's callers are ringsweep/ringload-style scripts that wait
// for each reply — over two connections, on a host with two cores.
// Every tenth request of a client is a fresh job the fleet must
// compute; the rest hit a pool warmed during set-up. The schedule is
// fixed rather than drawn, so the computed share (and with it the
// allocation per request) does not vary from seed to seed.
const (
	fleetClients  = 2
	computedEvery = 10
	fleetWorkers  = 2 // engine pool size on the coordinator and on the worker
)

// request is one job submission with its client-side content hash.
type request struct {
	hash string
	body []byte
}

func newRequest(j sweep.Job) request {
	body, err := json.Marshal(j)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal job: %v", err))
	}
	return request{hash: j.Hash(), body: body}
}

func (s shape) serveJob(seed uint64) sweep.Job {
	return sweep.Job{Benchmark: s.bench, CPUs: s.cpus, DataRefsPerCPU: s.refs, Seed: seed}
}

// hopTimer splits a computed job's time on the coordinator→worker hop
// from its execution on the worker: it times the worker's exec handler
// and the coordinator's Execute (wrapped as the engine executor, the
// way ringserved binds it), and pairs the two by job hash.
type hopTimer struct {
	mu    sync.Mutex
	exec  map[string]time.Duration
	execs samples // ms
	hops  samples // ms
}

// execPath is the worker's internal exec route.
const execPath = "/internal/v1/exec"

func (h *hopTimer) wrapWorker(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != execPath {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var j sweep.Job
		if err := json.Unmarshal(body, &j); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		h.mu.Lock()
		h.exec[j.Hash()] = d
		h.execs = append(h.execs, ms(d))
		h.mu.Unlock()
	})
}

func (h *hopTimer) wrapExecute(exec sweep.Executor) sweep.Executor {
	return func(j sweep.Job) (*core.Metrics, error) {
		start := time.Now()
		m, err := exec(j)
		total := time.Since(start)
		if err == nil {
			hash := j.Hash()
			h.mu.Lock()
			if d, ok := h.exec[hash]; ok {
				h.hops = append(h.hops, ms(total-d))
				delete(h.exec, hash)
			}
			h.mu.Unlock()
		}
		return m, err
	}
}

// detachedExecutor is the worker's executor: the engine's default
// executor, run on a single-use engine, returning a copy of the metrics.
// The default executor hands back a pointer into the simulated System,
// and the worker's result cache keeps every computed result, so with it
// each fresh job would pin its whole machine (about 2 MB at MP3D/16) and
// a window's thousands of fresh jobs would exhaust the host's memory.
func detachedExecutor(j sweep.Job) (*core.Metrics, error) {
	res, err := sweep.New(sweep.Options{Workers: 1}).RunOne(j)
	if err != nil {
		return nil, err
	}
	return detach(res.Metrics()), nil
}

// fleet is an in-process coordinator and one worker, each on its own
// loopback server; the worker joins through the real join endpoint.
type fleet struct {
	url      string
	client   *http.Client
	eng      *sweep.Engine // the coordinator's engine
	cs, ws   *httptest.Server
	stop     context.CancelFunc
	done     chan struct{}
	closeTrs []*http.Transport
	hop      *hopTimer // nil unless traced
}

// bootFleet starts a fleet. With traced set, request tracing is on and
// the hop is timed; otherwise the fleet runs as an untraced daemon.
func bootFleet(traced bool) (*fleet, error) {
	f := &fleet{done: make(chan struct{})}
	var rt, wrt *reqtrace.Tracer
	if traced {
		rt = reqtrace.NewTracer("coordinator", reqtrace.DefaultCapacity)
		wrt = reqtrace.NewTracer("worker:w1", reqtrace.DefaultCapacity)
		f.hop = &hopTimer{exec: make(map[string]time.Duration)}
	}
	coordTr := &http.Transport{MaxIdleConnsPerHost: fleetWorkers}
	workerTr := &http.Transport{}
	clientTr := &http.Transport{MaxConnsPerHost: fleetClients, MaxIdleConnsPerHost: fleetClients}
	f.closeTrs = []*http.Transport{coordTr, workerTr, clientTr}
	f.client = &http.Client{Transport: clientTr}

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Tracer: rt, Client: &http.Client{Transport: coordTr}})
	exec := coord.Execute
	if f.hop != nil {
		exec = f.hop.wrapExecute(exec)
	}
	f.eng = sweep.New(sweep.Options{Workers: fleetWorkers, Executors: map[string]sweep.Executor{"": exec}})
	coord.BindEngine(f.eng)
	srv := serve.New(serve.Options{
		Engine: f.eng, MaxInFlight: fleetClients, ReqTracer: rt, LookupFallback: coord.LookupFallback,
	})
	mux := http.NewServeMux()
	mux.Handle("/internal/v1/", coord.Handler())
	mux.Handle("/", srv.Handler())
	f.cs = httptest.NewServer(mux)
	f.url = f.cs.URL

	f.ws = httptest.NewUnstartedServer(nil)
	wk, err := cluster.NewWorker(cluster.WorkerOptions{
		ID: "w1",
		Engine: sweep.New(sweep.Options{
			Workers: fleetWorkers, Executors: map[string]sweep.Executor{"": detachedExecutor},
		}),
		Coordinator: f.url,
		Advertise:   "http://" + f.ws.Listener.Addr().String(),
		Tracer:      wrt,
		Client:      &http.Client{Timeout: 5 * time.Second, Transport: workerTr},
	})
	if err != nil {
		f.ws.Close()
		f.cs.Close()
		return nil, err
	}
	var h http.Handler = wk.Handler()
	if f.hop != nil {
		h = f.hop.wrapWorker(h)
	}
	f.ws.Config.Handler = h
	f.ws.Start()
	ctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	go func() { defer close(f.done); wk.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for coord.Status().Live == 0 {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("serve_fleet: worker did not join within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// close stops the worker's membership loop (it leaves the coordinator),
// then both servers, waiting for each to finish.
func (f *fleet) close() {
	f.stop()
	<-f.done
	f.ws.Close()
	f.cs.Close()
	for _, tr := range f.closeTrs {
		tr.CloseIdleConnections()
	}
}

type reply struct {
	Hash   string `json:"hash"`
	Source string `json:"source"`
}

// submit POSTs one job and checks the reply: status 200 and a content
// hash equal to the client-side Job.Hash. It returns the request ID.
func (f *fleet) submit(rq request) (reply, string, error) {
	var rp reply
	resp, err := f.client.Post(f.url+"/v1/jobs", "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return rp, "", err
	}
	defer resp.Body.Close()
	id := resp.Header.Get(reqtrace.HeaderRequest)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return rp, id, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.NewDecoder(resp.Body).Decode(&rp); err != nil {
		return rp, id, fmt.Errorf("decode reply: %v", err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return rp, id, err
	}
	if rp.Hash != rq.hash {
		return rp, id, fmt.Errorf("reply hash %s, want %s", rp.Hash, rq.hash)
	}
	return rp, id, nil
}

// requestTrace fetches a request's span tree from
// GET /v1/requests/{id}/trace. The root span is committed as the
// handler returns, so a fetch that races it retries briefly.
func (f *fleet) requestTrace(id string) ([]reqtrace.SpanData, error) {
	for attempt := 0; attempt < 200; attempt++ {
		resp, err := f.client.Get(f.url + "/v1/requests/" + id + "/trace")
		if err != nil {
			return nil, err
		}
		var doc reqtrace.TraceDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && err == nil {
			for _, s := range doc.Spans {
				if s.Parent == "" {
					return doc.Spans, nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("request %s: trace incomplete", id)
}

// warm submits every pool job once, split across the clients, so the
// measured requests that pick from the pool are cache hits.
func (f *fleet) warm(pool []request) error {
	errs := make(chan error, fleetClients)
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(pool); i += fleetClients {
				rp, _, err := f.submit(pool[i])
				if err == nil && rp.Source != sweep.SourceComputed.String() {
					err = fmt.Errorf("warming pool job %d: source %q, want computed", i, rp.Source)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// load is what the clients measured in one window.
type load struct {
	hit, computed samples // latency, ms
	attempted     int
	failures      []string
	self          map[string]samples // span self time by span name, µs (traced only)
}

// drive runs the closed loop: each client sends its next request only
// after the previous reply, until the window has elapsed and it has
// sent at least minPer requests. phase separates the fresh jobs of
// different windows. With log set, every request gets a span and its
// server-side span tree is fetched after the reply, untimed.
func (f *fleet) drive(c config, pool []request, window time.Duration, minPer int, phase uint64, log *spanLog) (load, time.Duration) {
	var mu sync.Mutex
	total := load{self: make(map[string]samples)}
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < fleetClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			var l load
			self := make(map[string]samples)
			rng := sim.NewRand(derive(c.seed, domainClient, phase, uint64(cl)))
			for i := 0; i < minPer || time.Since(start) < window; i++ {
				fresh := i%computedEvery == computedEvery-1
				var rq request
				if fresh {
					rq = newRequest(c.sizes.serve.serveJob(derive(c.seed, domainFresh, phase, uint64(cl), uint64(i))))
				} else {
					rq = pool[rng.Intn(len(pool))]
				}
				sp := log.begin("serve_fleet", "", "request", cl+1)
				t0 := time.Now()
				rp, id, err := f.submit(rq)
				lat := ms(time.Since(t0))
				sp.end()
				l.attempted++
				want := sweep.SourceMemory
				if fresh {
					want = sweep.SourceComputed
				}
				switch {
				case err != nil:
					l.failures = append(l.failures, err.Error())
					continue
				case rp.Source != want.String():
					l.failures = append(l.failures, fmt.Sprintf("job %s: source %q, want %q", rq.hash[:12], rp.Source, want))
					continue
				case fresh:
					l.computed = append(l.computed, lat)
				default:
					l.hit = append(l.hit, lat)
				}
				if log != nil {
					spans, err := f.requestTrace(id)
					if err != nil {
						l.failures = append(l.failures, err.Error())
						continue
					}
					log.addRemote("serve_fleet", sp, cl+1, spans)
					for name, v := range selfTimes(spans) {
						for _, us := range v {
							self[name] = append(self[name], float64(us))
						}
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			total.hit = append(total.hit, l.hit...)
			total.computed = append(total.computed, l.computed...)
			total.attempted += l.attempted
			total.failures = append(total.failures, l.failures...)
			for name, v := range self {
				total.self[name] = append(total.self[name], v...)
			}
		}(cl)
	}
	wg.Wait()
	return total, time.Since(start)
}

func (l load) all() samples { return append(append(samples(nil), l.hit...), l.computed...) }

func (res *result) addLoad(l load) {
	res.Attempted += l.attempted
	for _, msg := range l.failures {
		res.fail("%s", msg)
	}
}

// fleetPool is the jobs the fleet warms during set-up.
func fleetPool(c config) []request {
	pool := make([]request, c.sizes.pool)
	for i := range pool {
		pool[i] = newRequest(c.sizes.serve.serveJob(derive(c.seed, domainPool, uint64(i))))
	}
	return pool
}

// warmFleet boots a fleet and warms its pool: the serving workload's
// set-up.
func warmFleet(pool []request, traced bool) (*fleet, error) {
	f, err := bootFleet(traced)
	if err != nil {
		return nil, err
	}
	if err := f.warm(pool); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// setTimings sets the serving host timings of one window.
func (l load) setTimings(set func(string, float64, string, int), elapsed time.Duration) {
	set("hit_p50_ms", l.hit.median(), "ms", len(l.hit))
	set("hit_p99_ms", l.hit.pct(0.99), "ms", len(l.hit))
	set("computed_p50_ms", l.computed.median(), "ms", len(l.computed))
	set("computed_p99_ms", l.computed.pct(0.99), "ms", len(l.computed))
	set("req_per_s", float64(l.attempted)/elapsed.Seconds(), "1/s", l.attempted)
}

// fleetProbe drives a fresh untraced fleet for a quarter of the window
// on behalf of a traced workload that does not serve, so its per-layer
// set has the serving timings.
func fleetProbe(res *result, c config) error {
	pool := fleetPool(c)
	f, err := warmFleet(pool, false)
	if err != nil {
		return err
	}
	l, elapsed := f.drive(c, pool, c.window/4, c.sizes.minRequests, 2, nil)
	f.close()
	res.addLoad(l)
	l.setTimings(res.setLayer, elapsed)
	return nil
}

func runServe(c config) (*result, error) {
	res := newResult("serve_fleet", c)
	pool := fleetPool(c)
	setup := func() (*fleet, error) { return warmFleet(pool, false) }
	f, setups, err := timedSetups(setupsBefore, setup, (*fleet).close)
	if err != nil {
		return nil, err
	}

	before := f.eng.Stats()
	w := startWindow(c.window)
	l, _ := f.drive(c, pool, c.window, c.sizes.minRequests, 0, nil)
	elapsed, rt := w.stop()
	after := f.eng.Stats()
	f.close()
	setups, err = setupsAfter(setups, setup, (*fleet).close)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setups.median(), "s", len(setups))
	res.addLoad(l)
	all := l.all()
	if len(all) == 0 {
		return nil, fmt.Errorf("serve_fleet: no request succeeded")
	}
	l.setTimings(res.set, elapsed)
	res.setAllocs(rt, l.attempted)

	if !c.traced {
		return res, nil
	}
	res.setLayer("runtime.gc_cpu_frac", rt.gcFrac, "frac", 0)
	res.setLayer("hit_p999_ms", l.hit.pct(0.999), "ms", len(l.hit))
	computed := after.Computed - before.Computed
	execWall := after.ExecWall - before.ExecWall
	res.setLayer("sweep.pool_busy_frac", float64(execWall)/(float64(after.Workers)*float64(elapsed)), "frac", 0)
	res.setLayer("sweep.computed", float64(computed), "count", 0)
	res.setLayer("sweep.cache_hits", float64(after.CacheHits-before.CacheHits), "count", 0)
	if computed > 0 {
		res.setLayer("sweep.mean_job_ms", ms(execWall)/float64(computed), "ms", computed)
	}

	// The traced re-run: a fresh fleet with request tracing on, the hop
	// timed, and every request's span tree fetched after its reply.
	tf, err := warmFleet(pool, true)
	if err != nil {
		return nil, err
	}
	tl, _ := tf.drive(c, pool, c.window/4, c.sizes.minRequests, 1, c.spans)
	tf.close()
	res.addLoad(tl)
	res.setLayer("trace_overhead_frac", tl.all().median()/all.median()-1, "frac", 0)
	res.setLayer("cluster.worker_exec_ms", tf.hop.execs.median(), "ms", len(tf.hop.execs))
	res.setLayer("cluster.hop_ms", tf.hop.hops.median(), "ms", len(tf.hop.hops))
	// Span self times are means: the trace records whole microseconds,
	// and auth and admission take less than one on a hit.
	for _, s := range []struct {
		span, name, unit string
		scale            float64
	}{
		{"auth", "serve.auth_us", "us", 1},
		{"admit", "serve.admit_us", "us", 1},
		{"run", "serve.run_us", "us", 1},
		{"dispatch", "cluster.dispatch_us", "us", 1},
		{"exec", "cluster.exec_ms", "ms", 1e-3},
	} {
		v := tl.self[s.span]
		res.setLayer(s.name, v.mean()*s.scale, s.unit, len(v))
	}
	// The six machines at the size of the fleet's computed jobs.
	if err := probeLayers(res, c, c.sizes.serve); err != nil {
		return nil, err
	}
	return res, suiteProbe(res, c)
}
