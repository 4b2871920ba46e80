package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/corpus"
	"repro/internal/cpg"
	"repro/internal/loader"
	"repro/internal/serve"
)

const (
	clients    = 2 // closed-loop clients, each with one connection
	freshEvery = 5 // one request in five is for a corpus the daemon has not seen
)

// served is one corpus a request posts, with what the answer must be.
type served struct {
	seed    int64
	dir     string // the corpus written out, for hot corpora
	payload []byte // the request body
	fresh   bool   // never posted before the measured requests
	want    string // the CLI's output, when known
	truth   *corpus.Corpus
}

// sample is one request's outcome.
type sample struct {
	latency time.Duration // client side: send to last byte of the response
	wallMS  float64       // the daemon's own wall time for the request
	id      string
	output  string
	err     error
}

// corpusRequest generates the scale-1 corpus for seed and its request body.
func corpusRequest(seed int64) (*corpus.Corpus, []byte, error) {
	c := corpus.Generate(corpus.Spec{Seed: seed})
	req := serve.AnalyzeRequest{Headers: c.Headers}
	for _, f := range c.Files {
		req.Sources = append(req.Sources, serve.SourceFile{Path: f.Path, Content: f.Content})
	}
	body, err := json.Marshal(req)
	return &corpus.Corpus{Planned: c.Planned, Baits: c.Baits}, body, err
}

// cliOutput writes the corpus for seed to dir and returns refcheck's output
// for it: the bytes the daemon must serve.
func (b *bench) cliOutput(seed int64, dir string) (string, error) {
	c := corpus.Generate(corpus.Spec{Seed: seed})
	sources := make([]cpg.Source, 0, len(c.Files))
	for _, f := range c.Files {
		sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
	}
	if err := loader.WriteTree(dir, sources, c.Headers); err != nil {
		return "", err
	}
	p, err := run(filepath.Join(b.bin, "refcheck"), dir)
	return p.stdout, err
}

// runServe is the long-running daemon: refcheckd with a disk cache and two
// closed-loop clients posting explicit sources. Most requests hit a warmed
// hot set of corpora; the rest are corpora it has never seen. Set-up is
// daemon boot to listening plus warming the hot set.
func runServe(b *bench) (*result, error) {
	rng := rand.New(rand.NewSource(b.seed))
	hot := make([]*served, b.size.hot)
	for i := range hot {
		s := &served{seed: rng.Int63(), dir: filepath.Join(b.work, fmt.Sprintf("hot%d", i))}
		var err error
		if s.truth, s.payload, err = corpusRequest(s.seed); err != nil {
			return nil, err
		}
		if s.want, err = b.cliOutput(s.seed, s.dir); err != nil {
			return nil, err
		}
		if err := checkText(s.truth, s.want); err != nil {
			return nil, fmt.Errorf("hot corpus %d: %v", i, err)
		}
		hot[i] = s
	}
	// The request sequence, fixed by the seed: in every run of freshEvery
	// requests exactly one, at a seeded place, is a fresh corpus, so the
	// mix is the same in every run. Fresh bodies are made ahead so that
	// generating them costs no request time.
	plan := make([]*served, b.size.requests)
	var fresh []int // plan indexes of the fresh requests
	for i := range plan {
		plan[i] = hot[rng.Intn(len(hot))]
	}
	for at := 0; at < len(plan); at += freshEvery {
		i := at + rng.Intn(freshEvery)
		if i >= len(plan) {
			break
		}
		s := &served{seed: rng.Int63(), fresh: true}
		var err error
		if s.truth, s.payload, err = corpusRequest(s.seed); err != nil {
			return nil, err
		}
		plan[i] = s
		fresh = append(fresh, i)
	}

	res := &result{}
	var setups []float64
	var d *daemon
	cache := ""
	for i := 0; i < b.size.setups; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		cache = filepath.Join(b.work, fmt.Sprintf("cache%d", i))
		quiesce()
		start := time.Now()
		var err error
		if d, err = startDaemon(b.bin, cache, filepath.Join(b.work, fmt.Sprintf("addr%d", i))); err != nil {
			return nil, err
		}
		for _, s := range hot {
			if r := post(http.DefaultClient, d.addr, s); r.err != nil {
				d.stop()
				return nil, fmt.Errorf("warming the hot set: %v", r.err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	samples := make([]sample, len(plan))
	quiesce()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(plan); i = int(next.Add(1) - 1) {
				samples[i] = post(client, d.addr, plan[i])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	client.CloseIdleConnections()

	var lat, hotLat, freshLat, transport []float64
	for i, s := range samples {
		res.op(s.err)
		if s.err != nil {
			continue
		}
		sec := s.latency.Seconds()
		lat = append(lat, sec)
		transport = append(transport, sec*1e3-s.wallMS)
		if plan[i].fresh {
			freshLat = append(freshLat, sec)
		} else {
			hotLat = append(hotLat, sec)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("every request failed: %s", res.failures[0])
	}
	var stats serve.StatsResponse
	if b.trace {
		if err := getJSON(d.addr, "/stats", &stats); err != nil {
			return nil, err
		}
		if err := cacheSpans(res, d.addr, samples); err != nil {
			return nil, err
		}
	}
	rss, err := d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	disk, err := dirMB(cache)
	if err != nil {
		return nil, err
	}

	// Fresh answers were checked against ground truth; a few are also
	// compared with the CLI's bytes for the same corpus.
	for _, i := range fresh[:min(len(fresh), b.size.crossCheck)] {
		if samples[i].err != nil {
			continue
		}
		want, err := b.cliOutput(plan[i].seed, filepath.Join(b.work, fmt.Sprintf("check%d", i)))
		if err == nil && samples[i].output != want {
			err = fmt.Errorf("served output for fresh corpus %d differs from refcheck's", plan[i].seed)
		}
		res.op(err)
	}

	if b.trace {
		return res, b.traceServe(res, stats, cache, transport, hot[0])
	}
	res.endToEnd(median(setups), lat, float64(len(lat))/elapsed.Seconds(), rss)
	res.show("setup_s", median(setups), "s")
	res.show("req_per_s", float64(len(lat))/elapsed.Seconds(), "1/s")
	res.show("lat_p50_ms", median(lat)*1e3, "ms")
	res.show("lat_p95_ms", tail(lat)*1e3, "ms")
	res.show("requests", float64(len(lat)), "count")
	res.show("hot_p50_ms", median(hotLat)*1e3, "ms")
	res.show("fresh_p50_ms", median(freshLat)*1e3, "ms")
	res.show("peak_rss_mb", rss, "MB")
	res.show("cache_disk_mb", disk, "MB")
	return res, nil
}

// post sends one analyze request and checks the answer: the CLI's bytes
// where they are known, ground truth otherwise.
func post(client *http.Client, addr string, s *served) sample {
	start := time.Now()
	resp, err := client.Post("http://"+addr+"/v1/analyze", "application/json", bytes.NewReader(s.payload))
	if err != nil {
		return sample{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := sample{latency: time.Since(start)}
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, lastLine(string(data)))
		return r
	}
	var out serve.AnalyzeResponse
	if r.err = json.Unmarshal(data, &out); r.err != nil {
		return r
	}
	r.wallMS, r.id, r.output = out.WallMS, out.ID, out.Output
	switch {
	case s.want == "":
		r.err = checkText(s.truth, out.Output)
	case out.Output != s.want:
		r.err = fmt.Errorf("served output for corpus %d differs from refcheck's", s.seed)
	}
	return r
}

func getJSON(addr, path string, v any) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cacheSpans reads the daemon's cache phases from the traces it keeps of
// its most recent requests: the median lookup and store time per request
// that had one.
func cacheSpans(res *result, addr string, samples []sample) error {
	var lookup, store []float64
	for i := len(samples) - 1; i >= 0 && i >= len(samples)-serve.DefaultTraceRing/2; i-- {
		if samples[i].err != nil {
			continue
		}
		var events []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"` // µs
		}
		if err := getJSON(addr, "/trace/"+samples[i].id, &events); err != nil {
			return err
		}
		for _, e := range events {
			switch e.Name {
			case "phase:cache-lookup":
				lookup = append(lookup, e.Dur/1e6)
			case "phase:cache-store":
				store = append(store, e.Dur/1e6)
			}
		}
	}
	res.set("cache.lookup_s", median(lookup))
	res.set("cache.store_s", median(store))
	return nil
}

// traceServe records serve-mix's per-layer metrics: the daemon's /stats at
// the end of the run, the cache handle's open and close on the daemon's
// cache directory, and the layer ledger over the first hot corpus.
func (b *bench) traceServe(res *result, st serve.StatsResponse, cache string, transport []float64, first *served) error {
	n := st.Counters
	hitRatio := func(layer string) float64 {
		return ratio(float64(n[layer+".hit"]), float64(n[layer+".hit"]+n[layer+".miss"]))
	}
	res.set("serve.rejected", float64(n["serve.rejected"]))
	res.set("serve.errors", float64(n["serve.errors"]))
	res.set("serve.unit_hit_ratio", hitRatio("cache.unit"))
	res.set("serve.transport_ms", median(transport))
	res.set("cache.frontend_hit_ratio", hitRatio("frontend.cache"))
	res.set("cache.unit_hit_ratio", hitRatio("cache.unit"))
	res.set("cache.facts_hit_ratio", hitRatio("cache.facts"))
	res.set("cache.l1_evict", float64(n["cache.l1.evict"]))
	res.set("cache.singleflight_leaders", float64(n["cache.singleflight.leader"]))
	if st.Cache != nil {
		res.set("cache.l1_bytes", float64(st.Cache.L1Bytes))
	} else {
		res.set("cache.l1_bytes", 0)
	}
	disk, err := dirMB(cache)
	if err != nil {
		return err
	}
	res.set("cache.disk_mb", disk)
	res.set("cache.disk_mb_per_edit", 0)

	t := time.Now()
	c, err := analysiscache.Open(cache, analysiscache.WithMemory(cacheMem))
	res.set("cache.open_s", time.Since(t).Seconds())
	if err != nil {
		return err
	}
	t = time.Now()
	err = c.Close()
	res.set("cache.close_s", time.Since(t).Seconds())
	if err != nil {
		return err
	}

	return b.traceLayers(res, first.dir, first.truth)
}
