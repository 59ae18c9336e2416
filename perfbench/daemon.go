package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running cmd/reprod process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	logFile *os.File
	exited  chan struct{}
}

// freeAddr reserves a loopback port for the daemon.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon execs bin with default flags apart from the deployment
// settings (and any extra flags), waits for its first 200 from /readyz
// and returns the time from exec to that answer.
func startDaemon(ctx context.Context, bin, storeDir, logPath string, extra ...string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-store-dir", storeDir}, extra...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	d := &daemon{cmd: cmd, addr: addr, logPath: logPath, logFile: logFile, exited: make(chan struct{})}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, fmt.Errorf("start daemon: %w", err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is read from the log on failure
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	url := "http://" + addr + "/readyz"
	for {
		resp, err := probe.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(began)
				probe.CloseIdleConnections()
				return d, setup, nil
			}
		}
		select {
		case <-d.exited:
			d.logFile.Close()
			return nil, 0, fmt.Errorf("daemon exited before ready; log %s", logPath)
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Since(began) > 60*time.Second {
			d.stop()
			return nil, 0, errors.New("daemon not ready after 60s")
		}
	}
}

// stop shuts the daemon down gracefully (SIGTERM drains and flushes the
// store) and waits for it to exit, killing it if the drain overruns.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(40 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.logFile.Close()
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// maxBrownoutLevel scans the daemon log for brownout level changes and
// returns the highest level the controller reached.
func maxBrownoutLevel(logPath string) (int, error) {
	f, err := os.Open(logPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	re := regexp.MustCompile(`msg="brownout level change".* to=(\d+)`)
	maxLvl := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if m := re.FindSubmatch(sc.Bytes()); m != nil {
			lvl, _ := strconv.Atoi(string(m[1])) // \d+ always parses
			maxLvl = max(maxLvl, lvl)
		}
	}
	return maxLvl, sc.Err()
}

// snapshot is the warm-start store every run starts from, built once
// per invocation through the daemon's own /v1/sweep.
type snapshot struct {
	dir string
	// ops[k] is the simulate request repeating record k, and digests[k]
	// the SHA-256 of the report bytes the daemon answered when it
	// computed the record.
	ops     []*op
	digests [][32]byte
	bytes   int64
}

// buildSnapshot fills an empty store through a fresh daemon, then stops
// it so every record is flushed to the one segment. That daemon runs
// with the brownout controller off: building saturates the host, and
// the GC-pause SLO rule would otherwise shed the batch-class sweeps. The
// controller does not touch what the daemon persists.
func buildSnapshot(ctx context.Context, bin, dir, logPath string, seed uint64) (*snapshot, error) {
	d, _, err := startDaemon(ctx, bin, dir, logPath, "-brownout-rule=")
	if err != nil {
		return nil, err
	}
	snap := &snapshot{dir: dir, ops: make([]*op, 0, snapRecords), digests: make([][32]byte, 0, snapRecords)}
	client := &http.Client{Timeout: time.Minute}
	err = func() error {
		for k := 0; k < snapSweeps; k++ {
			sw := snapshotSweep(seed, k)
			o, err := sweepOp(sw)
			if err != nil {
				return err
			}
			results, err := postSweepRetrying(ctx, client, d.url("/v1/sweep"), o)
			if err != nil {
				return fmt.Errorf("snapshot sweep %d: %w", k, err)
			}
			for i, raw := range results {
				rep, hash, err := reportBytes(raw)
				if err != nil {
					return err
				}
				if hash != o.hashes[i] {
					return fmt.Errorf("snapshot sweep %d variant %d: spec_hash %s, want %s", k, i, hash, o.hashes[i])
				}
				so, err := specOp(kindSimulate, variantSpec(o.sweep, i))
				if err != nil {
					return err
				}
				so.snap = len(snap.ops)
				snap.ops = append(snap.ops, so)
				snap.digests = append(snap.digests, sha256.Sum256(rep))
			}
		}
		return nil
	}()
	client.CloseIdleConnections()
	d.stop()
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if len(entries) != 1 {
		return nil, fmt.Errorf("snapshot has %d files, want one segment", len(entries))
	}
	info, err := entries[0].Info()
	if err != nil {
		return nil, err
	}
	snap.bytes = info.Size()
	return snap, nil
}

// postSweepRetrying posts one snapshot sweep, honoring Retry-After on a
// 429 (building the snapshot is set-up, not measurement), and returns
// the raw per-variant results.
func postSweepRetrying(ctx context.Context, client *http.Client, url string, o *op) ([]json.RawMessage, error) {
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(o.body))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 20 {
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(max(wait, 1)) * time.Second):
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
		var sr sweepBody
		if err := json.Unmarshal(body, &sr); err != nil {
			return nil, err
		}
		if sr.SweepHash != o.sweepHash || len(sr.Results) != len(o.hashes) {
			return nil, fmt.Errorf("sweep_hash %s with %d results, want %s with %d", sr.SweepHash, len(sr.Results), o.sweepHash, len(o.hashes))
		}
		return sr.Results, nil
	}
}

// copyStore copies the snapshot's segment files into a fresh store
// directory, so every daemon start warm-starts from identical bytes.
func copyStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
