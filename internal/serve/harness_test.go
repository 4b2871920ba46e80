package serve

// This file is the black-box harness from the PR's test brief: it builds the
// real refcheck and refcheckd binaries, boots the daemon on a random port,
// and drives it with plain HTTP clients — no in-process shortcuts — proving
// the serving layer end to end: responses byte-identical to the CLI, the
// full golden gate (352/352 planned bugs, 5/5 baits) reproduced over the
// wire, concurrency, the observability endpoints, and the SIGTERM drain.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/difftest"
)

var binaries struct {
	once                sync.Once
	dir                 string
	refcheck, refcheckd string
	err                 error
}

// buildBinaries compiles cmd/refcheck and cmd/refcheckd once per test
// process into a shared temp dir.
func buildBinaries(t *testing.T) (string, string) {
	t.Helper()
	binaries.once.Do(func() {
		dir, err := os.MkdirTemp("", "refcheckd-harness-")
		if err != nil {
			binaries.err = err
			return
		}
		binaries.dir = dir
		binaries.refcheck = filepath.Join(dir, "refcheck")
		binaries.refcheckd = filepath.Join(dir, "refcheckd")
		for bin, pkg := range map[string]string{
			binaries.refcheck:  "./cmd/refcheck",
			binaries.refcheckd: "./cmd/refcheckd",
		} {
			cmd := exec.Command("go", "build", "-o", bin, pkg)
			cmd.Dir = repoRoot()
			if out, err := cmd.CombinedOutput(); err != nil {
				binaries.err = fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
				return
			}
		}
	})
	if binaries.err != nil {
		t.Fatal(binaries.err)
	}
	return binaries.refcheck, binaries.refcheckd
}

func repoRoot() string {
	abs, err := filepath.Abs("../..")
	if err != nil {
		return "../.."
	}
	return abs
}

// syncBuffer guards the daemon's stderr, which the child process writes
// while test failure paths read it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one running refcheckd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *syncBuffer
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// startDaemon boots refcheckd on a random port with a fresh cache dir and
// waits for it to publish its bound address.
func startDaemon(t *testing.T, extraArgs ...string) *daemon {
	t.Helper()
	_, refcheckd := buildBinaries(t)
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-cache", filepath.Join(dir, "cache"),
	}, extraArgs...)
	d := &daemon{cmd: exec.Command(refcheckd, args...), stderr: &syncBuffer{}}
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = string(b)
			return d
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("refcheckd did not publish an address; stderr:\n%s", d.stderr)
	return nil
}

// cliDemo runs `refcheck -demo [args...]` and returns its stdout.
func cliDemo(t *testing.T, extra ...string) string {
	t.Helper()
	refcheck, _ := buildBinaries(t)
	cmd := exec.Command(refcheck, append([]string{"-demo"}, extra...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("refcheck -demo: %v\n%s", err, errb.String())
	}
	return out.String()
}

func wireDemo(t *testing.T, d *daemon, req AnalyzeRequest) AnalyzeResponse {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.url("/v1/analyze"), "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/analyze: %s: %s", resp.Status, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("binary harness skipped in -short mode")
	}
	d := startDaemon(t)

	t.Run("ServerMatchesCLI", func(t *testing.T) {
		want := cliDemo(t)
		got := wireDemo(t, d, AnalyzeRequest{Demo: true})
		if got.Output != want {
			t.Fatalf("served output is not byte-identical to refcheck -demo:\nserved %d bytes, CLI %d bytes",
				len(got.Output), len(want))
		}
		if got.Reports == 0 || got.Metrics["checker.functions"] == 0 {
			t.Fatalf("response missing reports/metrics: %+v", got)
		}
	})

	t.Run("ClientModeMatchesCLI", func(t *testing.T) {
		_, refcheckd := buildBinaries(t)
		cmd := exec.Command(refcheckd, "-post", d.url("/v1/analyze"), "-demo")
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("refcheckd -post: %v\n%s", err, errb.String())
		}
		if want := cliDemo(t); out.String() != want {
			t.Fatal("refcheckd -post stdout is not byte-identical to refcheck -demo")
		}
	})

	t.Run("JSONMatchesCLI", func(t *testing.T) {
		want := cliDemo(t, "-json")
		got := wireDemo(t, d, AnalyzeRequest{Demo: true, JSON: true})
		if got.Output != want {
			t.Fatal("served -json output is not byte-identical to refcheck -demo -json")
		}
	})

	t.Run("GoldenGateOverTheWire", func(t *testing.T) {
		got := wireDemo(t, d, AnalyzeRequest{Demo: true, Seed: difftest.GoldenSeed, JSON: true})
		var wire []struct {
			Pattern, Function string
		}
		if err := json.Unmarshal([]byte(got.Output), &wire); err != nil {
			t.Fatalf("served JSON did not parse: %v", err)
		}
		reports := make([]core.Report, 0, len(wire))
		for _, w := range wire {
			reports = append(reports, core.Report{
				Pattern: core.Pattern(w.Pattern), Function: w.Function,
			})
		}
		if err := difftest.GoldenGate(reports); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ConcurrentRequestsIdentical", func(t *testing.T) {
		want := cliDemo(t)
		const n = 8
		var wg sync.WaitGroup
		outputs := make([]string, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outputs[i] = wireDemo(t, d, AnalyzeRequest{Demo: true}).Output
			}(i)
		}
		wg.Wait()
		for i, out := range outputs {
			if out != want {
				t.Fatalf("concurrent request %d diverged from the CLI output", i)
			}
		}
	})

	t.Run("StatsAndTrace", func(t *testing.T) {
		run := wireDemo(t, d, AnalyzeRequest{Demo: true})

		resp, err := http.Get(d.url("/stats"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		if stats.Counters["serve.ok"] < 1 || stats.Counters["cache.singleflight.leader"] < 1 {
			t.Fatalf("stats missing serving/cache counters: %+v", stats.Counters)
		}
		if stats.Cache == nil || stats.Cache.L1Entries == 0 {
			t.Fatalf("stats missing warm L1 tier: %+v", stats.Cache)
		}
		if stats.Cache.L2Entries == 0 {
			t.Fatalf("stats missing the disk tier's index: %+v", stats.Cache)
		}

		tresp, err := http.Get(d.url("/trace/" + run.ID))
		if err != nil {
			t.Fatal(err)
		}
		defer tresp.Body.Close()
		trace, err := io.ReadAll(tresp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if tresp.StatusCode != http.StatusOK || !strings.Contains(string(trace), `"ph":`) {
			t.Fatalf("GET /trace/%s: %s (%d bytes)", run.ID, tresp.Status, len(trace))
		}

		if gone, err := http.Get(d.url("/trace/never-ran")); err == nil {
			gone.Body.Close()
			if gone.StatusCode != http.StatusNotFound {
				t.Fatalf("unknown trace id: status %d, want 404", gone.StatusCode)
			}
		}
	})

	t.Run("Healthz", func(t *testing.T) {
		resp, err := http.Get(d.url("/healthz"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
			t.Fatalf("GET /healthz: %s %q", resp.Status, body)
		}
	})
}

// TestHarnessSIGTERMDrain boots its own daemon, serves one request, then
// delivers SIGTERM and requires a clean exit-0 drain.
func TestHarnessSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("binary harness skipped in -short mode")
	}
	d := startDaemon(t)
	wireDemo(t, d, AnalyzeRequest{Demo: true})

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("refcheckd exited non-zero after SIGTERM: %v\nstderr:\n%s", err, d.stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("refcheckd did not drain within 30s; stderr:\n%s", d.stderr)
	}
	if !strings.Contains(d.stderr.String(), "drained") {
		t.Fatalf("drain log missing; stderr:\n%s", d.stderr)
	}
}
