package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// environment describes the host and the code a result was measured on.
// Absolute times drift between hosts and even within one session on a
// shared host, so a figure means something only next to this line.
func environment(root, workload string, seed int64, seconds int, trace bool) string {
	return fmt.Sprintf("env cpu=%q nproc=%d gomaxprocs=%d calib_ms=%.1f go=%s commit=%s source=%s workload=%s seed=%d seconds=%d trace=%t",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), float64(calibrate())/1e6, runtime.Version(),
		commit(root), sourceHash(root), workload, seed, seconds, trace)
}

// calibrate times a fixed single-threaded CPU job, SHA-256 over 64 MiB
// (the fastest of three), so that a slow host can be told apart from a slow
// program: on a shared 2-CPU host the same refcheck run has taken 0.43 s
// and 0.7 s within an hour.
func calibrate() time.Duration {
	buf := make([]byte, 1<<20)
	best := time.Duration(math.MaxInt64)
	for rep := 0; rep < 3; rep++ {
		h := sha256.New()
		start := time.Now()
		for i := 0; i < 64; i++ {
			h.Write(buf)
		}
		h.Sum(nil)
		best = min(best, time.Since(start))
	}
	return best
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, or "none" outside a git work tree.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash fingerprints the program's sources (go.mod and every .go file
// under cmd/ and internal/), which identifies the code where no git commit
// is available.
func sourceHash(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, e fs.DirEntry, err error) error {
			if err == nil && e.Type().IsRegular() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
