package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/core"
)

// testSources is a small fixture with one planted bug per file, enough to
// exercise the full pipeline (frontend, facts, checkers) in milliseconds.
func testSources() []SourceFile {
	return []SourceFile{
		{Path: "drivers/a/leak.c", Content: `
static int a_probe(void)
{
	struct device_node *np = of_find_node_by_path("/soc");
	if (!np)
		return -ENODEV;
	use_node(np);
	return 0;
}`},
		{Path: "drivers/b/uad.c", Content: `
static void b_release(struct sock *sk)
{
	sock_put(sk);
	sk->sk_err = 0;
}`},
		{Path: "drivers/c/errpath.c", Content: `
static int c_attach(struct device_node *np)
{
	int err;
	of_node_get(np);
	err = register_thing(np);
	if (err)
		goto fail;
	of_node_put(np);
	return 0;
fail:
	return err;
}`},
	}
}

// newTestServer stands up an in-process refcheckd over a temp cache and
// returns the Server (for registry and seam access) plus its HTTP front.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache == nil {
		cache, err := analysiscache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = cache
		t.Cleanup(func() { cache.Close() })
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postAnalyze(t *testing.T, url string, req AnalyzeRequest) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSoakIdenticalRequestsSingleFlight drives N identical concurrent
// requests through the server and proves the dedup ledger balances: every
// request is answered identically, but only single-flight leaders (almost
// always exactly one) actually computed.
func TestSoakIdenticalRequestsSingleFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	req := AnalyzeRequest{Sources: testSources()}

	const n = 8
	var wg sync.WaitGroup
	outputs := make([]string, n)
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postAnalyze(t, ts.URL, req)
			statuses[i] = resp.StatusCode
			var out AnalyzeResponse
			if err := json.Unmarshal(body, &out); err == nil {
				outputs[i] = out.Output
			}
		}(i)
	}
	wg.Wait()

	for i, code := range statuses {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	for i := 1; i < n; i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("request %d output differs from request 0:\n%q\nvs\n%q", i, outputs[i], outputs[0])
		}
	}
	if outputs[0] == "" {
		t.Fatal("empty output")
	}

	reg := srv.Registry()
	leaders := reg.Counter("cache.singleflight.leader")
	waiters := reg.Counter("cache.singleflight.wait")
	hits := reg.Counter("cache.unit.hit")
	if leaders < 1 || leaders >= n {
		t.Fatalf("%d identical requests elected %d single-flight leaders", n, leaders)
	}
	// Every request is accounted for exactly once: it led, waited on the
	// leader, or arrived after the result was cached.
	if leaders+waiters+hits != n {
		t.Fatalf("dedup ledger unbalanced: leaders=%d waiters=%d hits=%d, want sum %d",
			leaders, waiters, hits, n)
	}
}

// blockingStub is an analyze seam stand-in that honors the admission
// contract like core.Analyze does — acquire before computing, release after
// — but parks inside the computation until the test says go.
type blockingStub struct {
	started chan string   // receives the request's ctx-less marker on slot entry
	gate    chan struct{} // closed to let computations finish
}

func (b *blockingStub) analyze(ctx context.Context, req core.Request) (*core.Run, error) {
	release, err := req.Options.Admit.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	b.started <- ""
	select {
	case <-b.gate:
		return &core.Run{Trace: req.Trace}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestSoakDistinctRequestsBackpressure pins the queue semantics: with one
// compute slot and one queue position, a third concurrent computation is
// rejected with 429 + Retry-After while the first two eventually succeed.
func TestSoakDistinctRequestsBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, Queue: 1})
	stub := &blockingStub{started: make(chan string, 4), gate: make(chan struct{})}
	srv.analyze = stub.analyze

	req := AnalyzeRequest{Sources: testSources()}
	type result struct {
		status int
		retry  string
	}
	results := make(chan result, 2)
	post := func() {
		resp, _ := postAnalyze(t, ts.URL, req)
		results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
	}

	// First request takes the slot and parks inside the stub.
	go post()
	<-stub.started
	// Second request is admitted to the queue and blocks for the slot.
	go post()
	waitFor(t, func() bool { return srv.gate.Queued() == 1 })

	// Third request fits neither level: immediate 429 with a retry hint.
	resp, _ := postAnalyze(t, ts.URL, req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if got := srv.Registry().Counter("serve.rejected"); got != 1 {
		t.Fatalf("serve.rejected = %d, want 1", got)
	}

	// Unparking the stub drains the slot and the queue; both accepted
	// requests complete normally.
	close(stub.gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("accepted request finished with status %d", r.status)
		}
	}
	<-stub.started // the queued request's slot entry
	waitFor(t, func() bool { return srv.gate.Running() == 0 && srv.gate.Queued() == 0 })
}

// TestSoakWarmCacheUnbounded shows cache hits bypass admission entirely:
// with zero queue and a stub that rejects every computation, a warmed-up
// request still succeeds.
func TestSoakWarmCacheUnbounded(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1, Queue: -1})
	req := AnalyzeRequest{Sources: testSources()}

	// Warm the cache with a real computation.
	if resp, body := postAnalyze(t, ts.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", resp.StatusCode, body)
	}

	// Now hold the only slot hostage forever.
	release, err := srv.gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	for i := 0; i < 4; i++ {
		resp, body := postAnalyze(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if got := srv.Registry().Counter("cache.unit.hit"); got != 4 {
		t.Fatalf("cache.unit.hit = %d, want 4", got)
	}
}

// TestDaemonHeapPlateaus posts distinct generated corpora to one server
// with a small L1 and requires the live heap to level off: after 40
// corpora it may exceed the reading after 10 by at most plateauMargin.
// Each corpus leaves front-end and unit entries behind in the disk tier; a
// tier that kept their bytes grows about 5 MB per corpus, well past the
// margin, while its index costs about 100 bytes an entry.
func TestDaemonHeapPlateaus(t *testing.T) {
	const plateauMargin = 8 << 20
	cache, err := analysiscache.Open(t.TempDir(), analysiscache.WithMemory(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	_, ts := newTestServer(t, Config{Workers: 2, Cache: cache, TraceRing: 1})
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at10 uint64
	for seed := int64(1); seed <= 40; seed++ {
		resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{Demo: true, Seed: seed})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("corpus %d: status %d: %s", seed, resp.StatusCode, body)
		}
		if seed == 10 {
			at10 = live()
		}
	}
	at40 := live()
	t.Logf("live heap after 10 corpora %.1f MB, after 40 %.1f MB", float64(at10)/(1<<20), float64(at40)/(1<<20))
	if at40 > at10+plateauMargin {
		t.Fatalf("live heap grew from %.1f MB after 10 corpora to %.1f MB after 40; want at most %d MB growth",
			float64(at10)/(1<<20), float64(at40)/(1<<20), plateauMargin>>20)
	}
}
