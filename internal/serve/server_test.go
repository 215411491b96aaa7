package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// fakeExecutor fabricates deterministic metrics without running a
// simulation, optionally sleeping to model a slow job and counting
// executions to observe singleflight.
type fakeExecutor struct {
	delay    time.Duration
	computes atomic.Int64
	started  chan struct{} // closed once on first execution, if set
	once     sync.Once
}

func (f *fakeExecutor) run(j sweep.Job) (*core.Metrics, error) {
	f.computes.Add(1)
	if f.started != nil {
		f.once.Do(func() { close(f.started) })
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	m := &core.Metrics{
		ExecTime: sim.Time(int64(j.CPUs) * int64(j.DataRefsPerCPU) * 1000),
		BusyTime: sim.Time(int64(j.CPUs) * int64(j.DataRefsPerCPU) * 500),
		DataRefs: uint64(j.CPUs * j.DataRefsPerCPU),
	}
	m.MissLatency.Observe(600)
	return m, nil
}

// newTestServer builds a Server whose default executor is fake, over
// an httptest instance.
func newTestServer(t *testing.T, fake *fakeExecutor, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Engine == nil {
		opts.Engine = sweep.New(sweep.Options{
			Workers:   4,
			Executors: map[string]sweep.Executor{"": fake.run},
		})
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, url string, job sweep.Job, query string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeJobResult(t *testing.T, raw []byte) JobResult {
	t.Helper()
	var jr JobResult
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatalf("bad job result %s: %v", raw, err)
	}
	return jr
}

func testJob(seed uint64) sweep.Job {
	return sweep.Job{Benchmark: "MP3D", CPUs: 8, DataRefsPerCPU: 200, Seed: seed}
}

func TestSubmitComputeThenHit(t *testing.T) {
	fake := &fakeExecutor{}
	_, ts := newTestServer(t, fake, Options{})

	resp, raw := postJob(t, ts.URL, testJob(1), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	first := decodeJobResult(t, raw)
	if first.Cached || first.Source != "computed" {
		t.Errorf("cold submit reported %s/cached=%v", first.Source, first.Cached)
	}
	if first.Hash == "" || first.Summary.ExecTimeUS == 0 {
		t.Errorf("incomplete result: %+v", first)
	}
	if first.Metrics != nil {
		t.Error("summary response should omit full metrics")
	}

	resp, raw = postJob(t, ts.URL, testJob(1), "?full=1")
	second := decodeJobResult(t, raw)
	if resp.StatusCode != http.StatusOK || !second.Cached || second.Source != "memory" {
		t.Errorf("resubmit status %d source %s cached %v", resp.StatusCode, second.Source, second.Cached)
	}
	if second.Hash != first.Hash {
		t.Error("resubmit produced a different hash")
	}
	if second.Metrics == nil {
		t.Error("full=1 response missing metrics snapshot")
	}
	if n := fake.computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
}

func TestConcurrentIdenticalSubmissionsComputeOnce(t *testing.T) {
	fake := &fakeExecutor{delay: 100 * time.Millisecond}
	_, ts := newTestServer(t, fake, Options{})

	const clients = 2
	var wg sync.WaitGroup
	hashes := make([]string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJob(t, ts.URL, testJob(7), "")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d status %d: %s", i, resp.StatusCode, raw)
				return
			}
			hashes[i] = decodeJobResult(t, raw).Hash
		}(c)
	}
	wg.Wait()
	if n := fake.computes.Load(); n != 1 {
		t.Errorf("concurrent identical submissions computed %d times, want 1 (singleflight)", n)
	}
	if hashes[0] == "" || hashes[0] != hashes[1] {
		t.Errorf("clients saw different hashes: %v", hashes)
	}
}

func TestRestartServedFromDiskCache(t *testing.T) {
	dir := t.TempDir()
	fake1 := &fakeExecutor{}
	eng1 := sweep.New(sweep.Options{Workers: 2, CacheDir: dir,
		Executors: map[string]sweep.Executor{"": fake1.run}})
	_, ts1 := newTestServer(t, fake1, Options{Engine: eng1})
	resp, raw := postJob(t, ts1.URL, testJob(3), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	hash := decodeJobResult(t, raw).Hash

	// A "restarted" server: fresh engine, fresh process-local cache,
	// same cache directory.
	fake2 := &fakeExecutor{}
	eng2 := sweep.New(sweep.Options{Workers: 2, CacheDir: dir,
		Executors: map[string]sweep.Executor{"": fake2.run}})
	_, ts2 := newTestServer(t, fake2, Options{Engine: eng2})
	resp, raw = postJob(t, ts2.URL, testJob(3), "")
	jr := decodeJobResult(t, raw)
	if resp.StatusCode != http.StatusOK || jr.Source != "disk" || !jr.Cached {
		t.Errorf("restart resubmit status %d source %s", resp.StatusCode, jr.Source)
	}
	if jr.Hash != hash {
		t.Error("restart changed the content hash")
	}
	if n := fake2.computes.Load(); n != 0 {
		t.Errorf("restart recomputed %d jobs, want disk replay", n)
	}

	// GET-by-hash is idempotent and cache-backed.
	get, err := http.Get(ts2.URL + "/v1/results/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Errorf("GET result status %d", get.StatusCode)
	}
	var got JobResult
	if err := json.NewDecoder(get.Body).Decode(&got); err != nil || got.Hash != hash {
		t.Errorf("GET result = %+v, err %v", got, err)
	}

	if r404, err := http.Get(ts2.URL + "/v1/results/" + strings.Repeat("0", 64)); err == nil {
		if r404.StatusCode != http.StatusNotFound {
			t.Errorf("unknown hash status %d, want 404", r404.StatusCode)
		}
		r404.Body.Close()
	}
}

// TestResultHashValidation probes GET /v1/results/{hash} with
// malformed and path-traversal hashes: every one must be rejected with
// 400 before touching disk, and a traversal target the daemon could
// write must survive — the cache's corrupt-artifact recovery deletes
// files, so an unvalidated hash would let a GET remove arbitrary
// *.json files.
func TestResultHashValidation(t *testing.T) {
	dir := t.TempDir()
	victim := filepath.Join(dir, "victim.json")
	if err := os.WriteFile(victim, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	fake := &fakeExecutor{}
	eng := sweep.New(sweep.Options{Workers: 2, CacheDir: filepath.Join(dir, "cache"),
		Executors: map[string]sweep.Executor{"": fake.run}})
	_, ts := newTestServer(t, fake, Options{Engine: eng})

	for _, h := range []string{
		"..%2Fvictim",           // unescapes to ../victim: dir/victim.json
		"..%2F..%2Fvictim",      // deeper traversal
		"no-such-hash",          // not hex
		strings.Repeat("a", 63), // wrong length
		strings.Repeat("A", 64), // uppercase hex is not Job.Hash output
		strings.Repeat("g", 64), // non-hex at the right length
		strings.Repeat("a", 31) + "%00" + strings.Repeat("a", 31), // embedded NUL
	} {
		req, err := http.NewRequest("GET", ts.URL+"/v1/results/"+h, nil)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("hash %q: status %d, want 400", h, resp.StatusCode)
		}
	}
	if _, err := os.Stat(victim); err != nil {
		t.Errorf("traversal lookup deleted the victim file: %v", err)
	}
}

func TestExpiredDeadlineReturns504(t *testing.T) {
	fake := &fakeExecutor{delay: 400 * time.Millisecond, started: make(chan struct{})}
	_, ts := newTestServer(t, fake, Options{MaxInFlight: 1})

	done := make(chan struct{})
	go func() {
		defer close(done)
		postJob(t, ts.URL, testJob(8), "")
	}()
	<-fake.started // first request holds the only slot

	// This request's deadline expires while it waits in the admission
	// queue: 504, and its job never computes.
	resp, raw := postJob(t, ts.URL, testJob(9), "?deadline_ms=30")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "cancelled") {
		t.Errorf("504 body should mention cancellation: %s", raw)
	}
	<-done
	if n := fake.computes.Load(); n != 1 {
		t.Errorf("computed %d jobs, want 1 (expired request must not compute)", n)
	}
}

func TestDeadlineMidRunReturns504(t *testing.T) {
	fake := &fakeExecutor{delay: 300 * time.Millisecond}
	_, ts := newTestServer(t, fake, Options{})
	begin := time.Now()
	resp, raw := postJob(t, ts.URL, testJob(11), "?deadline_ms=50")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, raw)
	}
	if wall := time.Since(begin); wall > 250*time.Millisecond {
		t.Errorf("504 took %v; handler must answer at the deadline, not at job completion", wall)
	}
	// The abandoned computation completes into the cache (work
	// conservation): an immediate resubmit is a hit, not a recompute.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, raw := postJob(t, ts.URL, testJob(11), "")
		if resp.StatusCode == http.StatusOK {
			if jr := decodeJobResult(t, raw); !jr.Cached {
				t.Errorf("resubmit after abandoned run recomputed (source %s)", jr.Source)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resubmit never succeeded")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := fake.computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
}

func TestAdmissionOverflowReturns429(t *testing.T) {
	fake := &fakeExecutor{delay: 400 * time.Millisecond, started: make(chan struct{})}
	s, ts := newTestServer(t, fake, Options{MaxInFlight: 1, QueueDepth: 1})

	results := make(chan int, 3)
	post := func(seed uint64) {
		resp, _ := postJob(t, ts.URL, testJob(seed), "")
		results <- resp.StatusCode
	}
	go post(1)
	<-fake.started // first request holds the slot
	go post(2)
	waitQueued(t, s.adm, 1) // second waits in the queue
	resp, raw := postJob(t, ts.URL, testJob(3), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429: %s", resp.StatusCode, raw)
	}
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("admitted request finished with %d", code)
		}
	}
}

func TestSweepBatchAndExperiments(t *testing.T) {
	fake := &fakeExecutor{}
	_, ts := newTestServer(t, fake, Options{})

	jobs := []sweep.Job{testJob(1), testJob(2), testJob(1)}
	body, _ := json.Marshal(map[string]any{"jobs": jobs})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sr.Jobs != 3 || len(sr.Results) != 3 {
		t.Fatalf("sweep response %+v (status %d)", sr, resp.StatusCode)
	}
	if sr.Computed != 2 || sr.CacheHits != 1 {
		t.Errorf("computed/hits = %d/%d, want 2/1 (duplicate in batch coalesces)", sr.Computed, sr.CacheHits)
	}

	// Catalog lists experiments.
	lresp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var infos []experimentInfo
	if err := json.NewDecoder(lresp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(infos) != len(namedExperiments) {
		t.Errorf("catalog lists %d experiments, want %d", len(infos), len(namedExperiments))
	}

	// A named experiment expands and runs.
	eresp, err := http.Post(ts.URL+"/v1/experiments/calibration?refs=100&cpus=8", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var er SweepResponse
	if err := json.NewDecoder(eresp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK || er.Experiment != "calibration" || er.Jobs != 4 {
		t.Errorf("experiment response status %d %+v", eresp.StatusCode, er)
	}

	if nresp, err := http.Post(ts.URL+"/v1/experiments/no-such", "application/json", nil); err == nil {
		if nresp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown experiment status %d, want 404", nresp.StatusCode)
		}
		nresp.Body.Close()
	}
}

func TestEventsStreamSSE(t *testing.T) {
	fake := &fakeExecutor{}
	_, ts := newTestServer(t, fake, Options{})

	req, _ := http.NewRequest("GET", ts.URL+"/v1/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	reader := bufio.NewReader(resp.Body)
	// Consume the banner comment line first.
	if line, err := reader.ReadString('\n'); err != nil || !strings.HasPrefix(line, ":") {
		t.Fatalf("banner = %q, %v", line, err)
	}

	postJob(t, ts.URL, testJob(21), "")

	sawStart, sawDone := false, false
	lines := make(chan string)
	go func() {
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- line
		}
	}()
	timeout := time.After(5 * time.Second)
	for !(sawStart && sawDone) {
		select {
		case line := <-lines:
			if strings.HasPrefix(line, "event: start") {
				sawStart = true
			}
			if strings.HasPrefix(line, "event: done") {
				sawDone = true
			}
			if strings.HasPrefix(line, "data: ") {
				var ev sseEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &ev); err != nil {
					t.Errorf("bad event payload %q: %v", line, err)
				} else if ev.Hash == "" || ev.Label == "" {
					t.Errorf("incomplete event %+v", ev)
				}
			}
		case <-timeout:
			t.Fatalf("no start/done events (start=%v done=%v)", sawStart, sawDone)
		}
	}
}

func TestGracefulDrain(t *testing.T) {
	fake := &fakeExecutor{delay: 200 * time.Millisecond, started: make(chan struct{})}
	s, ts := newTestServer(t, fake, Options{})

	done := make(chan JobResult, 1)
	go func() {
		_, raw := postJob(t, ts.URL, testJob(31), "")
		done <- decodeJobResult(t, raw)
	}()
	<-fake.started
	s.BeginDrain()

	// New work is rejected while draining.
	resp, raw := postJob(t, ts.URL, testJob(32), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit status %d, want 503: %s", resp.StatusCode, raw)
	}
	// Health stays up but reports draining.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb healthBody
	json.NewDecoder(hresp.Body).Decode(&hb)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || hb.Status != "draining" {
		t.Errorf("healthz during drain: %d %+v", hresp.StatusCode, hb)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job finished and was answered.
	select {
	case jr := <-done:
		if jr.Hash == "" {
			t.Error("drained request lost its result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	if n := fake.computes.Load(); n != 1 {
		t.Errorf("drain computed %d jobs, want 1", n)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	fake := &fakeExecutor{}
	_, ts := newTestServer(t, fake, Options{})
	postJob(t, ts.URL, testJob(41), "")
	postJob(t, ts.URL, testJob(41), "")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	wants := []string{
		`ringsim_serve_requests_total{endpoint="jobs",code="200"} 2`,
		`ringsim_engine_jobs_total{state="computed"} 1`,
		`ringsim_engine_jobs_total{state="cache_hits"} 1`,
		"ringsim_engine_cache_hit_ratio 0.5",
		`ringsim_serve_request_seconds_bucket{endpoint="jobs",le="+Inf"} 2`,
		`ringsim_serve_request_seconds_count{endpoint="jobs"} 2`,
		"ringsim_serve_queue_depth 0",
		"ringsim_serve_in_flight 0",
		"ringsim_serve_draining 0",
	}
	for _, want := range wants {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestBadRequests(t *testing.T) {
	fake := &fakeExecutor{}
	_, ts := newTestServer(t, fake, Options{})
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"malformed job", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
		}, http.StatusBadRequest},
		{"unknown field", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"frobnicate":1}`))
		}, http.StatusBadRequest},
		{"empty sweep", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(`{"jobs":[]}`))
		}, http.StatusBadRequest},
		{"bad deadline", func() (*http.Response, error) {
			body, _ := json.Marshal(testJob(1))
			return http.Post(ts.URL+"/v1/jobs?deadline_ms=soon", "application/json", bytes.NewReader(body))
		}, http.StatusBadRequest},
		{"zero deadline", func() (*http.Response, error) {
			body, _ := json.Marshal(testJob(1))
			return http.Post(ts.URL+"/v1/jobs?deadline_ms=0", "application/json", bytes.NewReader(body))
		}, http.StatusBadRequest},
		{"negative deadline", func() (*http.Response, error) {
			body, _ := json.Marshal(testJob(1))
			return http.Post(ts.URL+"/v1/jobs?deadline_ms=-50", "application/json", bytes.NewReader(body))
		}, http.StatusBadRequest},
		{"wrong method", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/jobs")
		}, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	if n := fake.computes.Load(); n != 0 {
		t.Errorf("bad requests computed %d jobs", n)
	}
}

// TestDefaultExecutorIntegration runs one real simulation through the
// HTTP layer — no fakes — and sanity-checks the physics in the
// summary.
func TestDefaultExecutorIntegration(t *testing.T) {
	eng := sweep.New(sweep.Options{Workers: 2})
	_, ts := newTestServer(t, nil, Options{Engine: eng})
	resp, raw := postJob(t, ts.URL, sweep.Job{Benchmark: "WATER", CPUs: 8, DataRefsPerCPU: 200}, "?full=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	jr := decodeJobResult(t, raw)
	if jr.Summary.ProcUtil <= 0 || jr.Summary.ProcUtil > 1 {
		t.Errorf("ProcUtil %g out of range", jr.Summary.ProcUtil)
	}
	if jr.Summary.MissLatencyNS <= 0 {
		t.Errorf("MissLatencyNS %g", jr.Summary.MissLatencyNS)
	}
	if jr.Metrics == nil || jr.Metrics.DataRefs == 0 {
		t.Error("full metrics snapshot missing or empty")
	}
}

// TestMalformedGeometryIs400 posts jobs whose geometry a simulator
// component would panic on, through the real executor. Each must come
// back as a job error, and the server must keep serving afterwards: a
// panic in a sweep worker would take the whole process down.
func TestMalformedGeometryIs400(t *testing.T) {
	eng := sweep.New(sweep.Options{Workers: 1})
	_, ts := newTestServer(t, nil, Options{Engine: eng})
	for _, body := range []string{
		`{"cache_block_bytes":3}`,
		`{"cache_bytes":100000}`,
		`{"page_bytes":3000}`,
		`{"protocol":"hier-ring","cpus":16,"clusters":5}`,
		`{"ring_width_bits":7}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, resp.StatusCode, buf.String())
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after malformed jobs: %d", resp.StatusCode)
	}
	if resp, raw := postJob(t, ts.URL, sweep.Job{Benchmark: "WATER", CPUs: 8, DataRefsPerCPU: 100}, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid job after malformed ones: %d %s", resp.StatusCode, raw)
	}
}

// TestNegativeStreamLengthIs400: a negative stream length is a bad
// request. It used to run at the generator's default length (-600 plus
// the 600-ref warm-up is 0, the default) or as an empty stream, and was
// cached under its own hash; it must also not price below zero in the
// shortest-job queue, which would grant its tenant queue credit.
func TestNegativeStreamLengthIs400(t *testing.T) {
	eng := sweep.New(sweep.Options{Workers: 1})
	_, ts := newTestServer(t, nil, Options{Engine: eng})
	for _, j := range []sweep.Job{
		{CPUs: 8, DataRefsPerCPU: -600},
		{CPUs: 8, DataRefsPerCPU: -5000},
		{CPUs: 8, WarmupDataRefs: -5},
	} {
		if resp, raw := postJob(t, ts.URL, j, ""); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d (%s), want 400", j, resp.StatusCode, raw)
		}
		resp, err := http.Get(ts.URL + "/v1/results/" + j.Hash())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%+v: result lookup %d, want 404", j, resp.StatusCode)
		}
		if c := jobCost([]sweep.Job{j}); c < 0 {
			t.Errorf("%+v: cost %d, want >= 0", j, c)
		}
	}
}

// TestRetiredJobInputsAre400: the segmented ring and the PRIVATE
// profiles are gone. A job that still names them is refused as a bad
// request, ring_segments as an unknown field and PRIVATE as a job
// error, and the daemon keeps serving.
func TestRetiredJobInputsAre400(t *testing.T) {
	eng := sweep.New(sweep.Options{Workers: 1})
	_, ts := newTestServer(t, nil, Options{Engine: eng})
	for body, want := range map[string]string{
		`{"protocol":"directory-ring","cpus":32,"ring_segments":8}`:     "unknown field",
		`{"protocol":"directory-ring","benchmark":"PRIVATE","cpus":64}`: "no workload profile",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), want) {
			t.Errorf("%s: status %d (%s), want 400 naming %q", body, resp.StatusCode, buf.String(), want)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after retired inputs: %d", resp.StatusCode)
	}
}
