package repro

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/analysiscache"
	"repro/internal/serve"
)

// BenchmarkServeHTTP measures the refcheckd serving path end to end over a
// real HTTP round trip: JSON decode, admission, core.Analyze against the
// shared tiered cache, CLI-identical rendering, JSON encode. The warm row
// is the daemon's steady state — every request is an L1 unit hit — so its
// reqs/s metric is the serving-throughput headline; perfbench's serve-mix
// workload measures the same path against a real refcheckd.
func BenchmarkServeHTTP(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		cache, err := analysiscache.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		srv := serve.New(serve.Config{Cache: cache})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			srv.Close()
			cache.Close()
		}()
		payload, err := json.Marshal(serve.AnalyzeRequest{Demo: true})
		if err != nil {
			b.Fatal(err)
		}
		post := func() serve.AnalyzeResponse {
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var out serve.AnalyzeResponse
			if err := json.Unmarshal(body, &out); err != nil {
				b.Fatal(err)
			}
			return out
		}

		baseline := post() // the one real computation; everything after is warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if out := post(); out.Output != baseline.Output {
				b.Fatal("warm served output drifted from the computed output")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
		b.ReportMetric(float64(len(baseline.Output)), "output_bytes")
	})
}
