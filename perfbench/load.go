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
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sweepBody is the part of a /v1/sweep response the benchmark checks.
type sweepBody struct {
	SweepHash string            `json:"sweep_hash"`
	Results   []json.RawMessage `json:"results"`
}

// jobBody is the part of a /v1/jobs or /v1/jobs/{id} response the
// benchmark reads.
type jobBody struct {
	ID       string          `json:"id"`
	SpecHash string          `json:"spec_hash"`
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Report   json.RawMessage `json:"report"`
}

const specHashPrefix = `{"spec_hash":"`

// reportBytes returns a served result's report bytes — the object as
// the daemon encodes a service.Report, without the response's "cached"
// flag — and the spec_hash it names.
func reportBytes(raw []byte) ([]byte, string, error) {
	raw = bytes.TrimSpace(raw)
	if bytes.HasPrefix(raw, []byte(`{"cached":`)) {
		comma := bytes.IndexByte(raw, ',')
		if comma < 0 {
			return nil, "", errors.New("result has no report fields")
		}
		rep := make([]byte, 0, len(raw)-comma)
		rep = append(rep, '{')
		raw = append(rep, raw[comma+1:]...)
	}
	if !bytes.HasPrefix(raw, []byte(specHashPrefix)) || len(raw) < len(specHashPrefix)+64 {
		return nil, "", fmt.Errorf("result does not start with spec_hash: %.80q", raw)
	}
	return raw, string(raw[len(specHashPrefix) : len(specHashPrefix)+64]), nil
}

// outcome is the client's record of one op.
type outcome struct {
	done    bool // the op was attempted in the window
	ok      bool
	err     string
	latency time.Duration
	// due is when the op was due to be sent and end when it completed.
	due, end time.Time
	lag      time.Duration
	// reports are the op's report bytes, in variant order.
	reports [][]byte
}

// client sends ops to one server and checks every response.
type client struct {
	hc   *http.Client
	base string
	snap *snapshot
	// tc, when set, receives the client side of each op's span trace.
	tc *tracer
}

func newClient(base string, conns int, snap *snapshot) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 3 * time.Minute}, base: base, snap: snap}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// request sends one HTTP request of op i, recording its client span
// under parent, and returns the status and body.
func (c *client) request(tr *opTrace, i, parent int, method, path string, body []byte) (int, []byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, -1, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sid := tr.open("http.client", parent)
	if tr != nil {
		req.Header.Set(opHeader, strconv.Itoa(i))
		req.Header.Set(spanHeader, strconv.Itoa(sid))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		tr.close(sid)
		return 0, nil, sid, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.close(sid)
	return resp.StatusCode, out, sid, err
}

// do runs op o (op i of the window) and checks its output: a 2xx
// status, the expected spec_hash on every report, the snapshot's bytes
// for a repeated record, and the trace row count of an async job. It
// returns when the op is complete; keep retains the report bytes.
func (c *client) do(i int, o *op, due time.Time, keep bool) outcome {
	tr := c.tc.start(i)
	root := tr.openAt("op", -1, due)
	out := outcome{done: true, due: due}
	fail := func(format string, args ...any) outcome {
		out.err = fmt.Sprintf(format, args...)
		out.end = time.Now()
		out.latency = out.end.Sub(due)
		tr.close(root)
		return out
	}
	switch o.kind {
	case kindSimulate:
		status, body, _, err := c.request(tr, i, root, http.MethodPost, "/v1/simulate", o.body)
		if err != nil {
			return fail("transport: %v", err)
		}
		if status != http.StatusOK {
			return fail("status %d", status)
		}
		rep, hash, err := reportBytes(body)
		if err != nil {
			return fail("%v", err)
		}
		if hash != o.hashes[0] {
			return fail("spec_hash %s, want %s", hash, o.hashes[0])
		}
		if o.snap >= 0 && sha256.Sum256(rep) != c.snap.digests[o.snap] {
			return fail("report of snapshot record %d differs from the bytes recorded at build", o.snap)
		}
		if keep {
			out.reports = [][]byte{rep}
		}
	case kindSweep:
		status, body, _, err := c.request(tr, i, root, http.MethodPost, "/v1/sweep", o.body)
		if err != nil {
			return fail("transport: %v", err)
		}
		if status != http.StatusOK {
			return fail("status %d", status)
		}
		var sr sweepBody
		if err := json.Unmarshal(body, &sr); err != nil {
			return fail("decode sweep: %v", err)
		}
		if sr.SweepHash != o.sweepHash || len(sr.Results) != len(o.hashes) {
			return fail("sweep_hash %s with %d results, want %s with %d", sr.SweepHash, len(sr.Results), o.sweepHash, len(o.hashes))
		}
		for v, raw := range sr.Results {
			rep, hash, err := reportBytes(raw)
			if err != nil {
				return fail("variant %d: %v", v, err)
			}
			if hash != o.hashes[v] {
				return fail("variant %d spec_hash %s, want %s", v, hash, o.hashes[v])
			}
			if keep {
				out.reports = append(out.reports, rep)
			}
		}
	case kindJob:
		status, body, _, err := c.request(tr, i, root, http.MethodPost, "/v1/jobs", o.body)
		if err != nil {
			return fail("transport: %v", err)
		}
		if status != http.StatusAccepted {
			return fail("submit status %d", status)
		}
		var jb jobBody
		if err := json.Unmarshal(body, &jb); err != nil {
			return fail("decode job: %v", err)
		}
		if jb.SpecHash != o.hashes[0] {
			return fail("job spec_hash %s, want %s", jb.SpecHash, o.hashes[0])
		}
		rows, sid, err := c.streamTrace(tr, i, root, jb.ID)
		if err != nil {
			return fail("trace: %v", err)
		}
		// The op ends at the trace's EOF; fetching the report for the
		// output check is not part of it.
		out.end = time.Now()
		out.latency = out.end.Sub(due)
		tr.close(root)
		tr.setTraceRequest(sid)
		if rows != o.traceRows {
			out.err = fmt.Sprintf("trace streamed %d rows, want %d", rows, o.traceRows)
			return out
		}
		status, body, _, err = c.request(nil, i, -1, http.MethodGet, "/v1/jobs/"+jb.ID, nil)
		if err != nil || status != http.StatusOK {
			out.err = fmt.Sprintf("job status: %d %v", status, err)
			return out
		}
		jb = jobBody{}
		if err := json.Unmarshal(body, &jb); err != nil || jb.Status != "done" {
			out.err = fmt.Sprintf("job ended %s %s %v", jb.Status, jb.Error, err)
			return out
		}
		rep, hash, err := reportBytes(jb.Report)
		if err != nil || hash != o.hashes[0] {
			out.err = fmt.Sprintf("job report spec_hash %s, want %s (%v)", hash, o.hashes[0], err)
			return out
		}
		if keep {
			out.reports = [][]byte{rep}
		}
		out.ok = true
		return out
	}
	out.end = time.Now()
	out.latency = out.end.Sub(due)
	tr.close(root)
	out.ok = true
	return out
}

// streamTrace reads a job's NDJSON trace to EOF and counts its rows.
func (c *client) streamTrace(tr *opTrace, i, parent int, id string) (int, int, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return 0, -1, err
	}
	sid := tr.open("http.client", parent)
	if tr != nil {
		req.Header.Set(opHeader, strconv.Itoa(i))
		req.Header.Set(spanHeader, strconv.Itoa(sid))
	}
	defer tr.close(sid)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, sid, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, sid, fmt.Errorf("status %d", resp.StatusCode)
	}
	rows := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			rows++
		}
	}
	return rows, sid, sc.Err()
}

// window is one measured stretch of ops.
type window struct {
	outcomes []outcome
	elapsed  time.Duration
}

// closedLoop sends ops back to back on one connection until dur has
// passed; each op is timed from its send.
func closedLoop(ctx context.Context, src *opSource, dur time.Duration, exec func(i int, o *op, due time.Time) outcome) (window, error) {
	var w window
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		o, err := src.at(i)
		if err != nil {
			return w, err
		}
		w.outcomes = append(w.outcomes, exec(i, o, time.Now()))
	}
	w.elapsed = time.Since(start)
	return w, ctx.Err()
}

// openLoop sends op i at start + i/rate, whatever the server's state,
// over conns connections: an op due while every connection is busy
// waits for one, and its latency is timed from when it was due, so a
// stalled server cannot hide its queueing.
func openLoop(ctx context.Context, src *opSource, n int, rate float64, conns int, exec func(i int, o *op, due time.Time) outcome) (window, error) {
	if err := src.prepare(n); err != nil {
		return window{}, err
	}
	w := window{outcomes: make([]outcome, n)}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				lag := time.Since(due)
				o, _ := src.at(i) // prepared above
				out := exec(i, o, due)
				out.lag = lag
				w.outcomes[i] = out
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w, ctx.Err()
}
