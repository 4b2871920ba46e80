package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// proc is one finished child process.
type proc struct {
	wall   time.Duration
	rssMB  float64 // peak resident set, from the child's rusage
	stdout string
}

// command prepares argv so the child dies with the benchmark if the
// benchmark is killed first.
func command(argv []string) *exec.Cmd {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// run runs argv to completion and times it from start to exit.
func run(argv ...string) (proc, error) {
	cmd := command(argv)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return proc{}, fmt.Errorf("%s: %v: %s", strings.Join(argv, " "), err, lastLine(errb.String()))
	}
	return proc{wall: wall, rssMB: maxRSS(cmd), stdout: out.String()}, nil
}

func maxRSS(cmd *exec.Cmd) float64 {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// daemon is a running refcheckd.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	stderr  bytes.Buffer
	boot    time.Duration // start to listening
	done    chan struct{} // closed once the process has exited
	waitErr error
}

// startDaemon starts refcheckd on a free port with its cache in cacheDir and
// returns once it is listening.
func startDaemon(bin, cacheDir, addrFile string) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	d.cmd = command([]string{filepath.Join(bin, "refcheckd"), "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-cache", cacheDir})
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("refcheckd exited before listening: %v: %s", d.waitErr, lastLine(d.stderr.String()))
		case <-deadline:
			_ = d.cmd.Process.Kill()
			<-d.done
			return nil, fmt.Errorf("refcheckd did not start listening within 30s")
		case <-tick.C:
		}
		// The address file is written after the listener is bound, so a
		// successful dial also proves the file was read whole.
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			if c, err := net.Dial("tcp", string(b)); err == nil {
				c.Close()
				d.addr = string(b)
				d.boot = time.Since(start)
				return d, nil
			}
		}
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit and returns its
// peak RSS in MB.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-d.done
		return 0, err
	}
	<-d.done
	if d.waitErr != nil {
		return 0, fmt.Errorf("refcheckd: %v: %s", d.waitErr, lastLine(d.stderr.String()))
	}
	return maxRSS(d.cmd), nil
}

// quiesce flushes dirty pages to disk before a timed step, so that
// write-back of the inputs just written (or of a previous step's cache
// writes) does not land inside the measurement.
func quiesce() { syscall.Sync() }

// dirMB is the total size of the regular files under dir, in MB.
func dirMB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return float64(n) / (1 << 20), err
}
