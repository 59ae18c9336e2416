package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// The overload probe's load: open-loop hits over two connections, the
// load at which the daemon's default GC-pause SLO rule was seen to drive
// the brownout controller to level 3 within seconds.
const (
	probeRate = 3000
	probeDur  = 12 * time.Second
)

// probeResult is what the overload probe saw. Its ops are not part of
// any workload: they are reported here and counted nowhere else.
type probeResult struct {
	RateOpsPerS float64           `json:"rate_ops_per_s"`
	Seconds     float64           `json:"seconds"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	MaxLevel    int               `json:"loadctl_max_level"`
	SLOBreaches map[string]uint64 `json:"slo_breaches"`
	Sheds       map[string]uint64 `json:"sheds"`
	// GC cycles during the load, and how many paused over slowGCPause.
	GCCycles     uint64 `json:"gc_cycles"`
	GCSlowPauses uint64 `json:"gc_slow_pauses"`
	// ColdOp is the outcome of one cold op sent after the load: "ok", or
	// why it failed (a 429 when the controller sheds uncached work).
	ColdOp string `json:"cold_op"`
}

// overloadProbe starts a daemon with every flag at its default apart
// from the deployment settings (the measured daemons leave the
// gc_pause_p99 rule out), drives open-loop hits at probeRate on two
// connections for probeDur, then sends one cold op and reads what the
// daemon shed and how far its brownout controller escalated. This is
// where the known defect the measured runs do not carry can show: when
// the host stretches a GC pause past 4.1 ms, GC-pause burn alone takes
// the controller to "shed all uncached".
func overloadProbe(ctx context.Context, cfg config, snap *snapshot, runDir string) (*probeResult, error) {
	dir := filepath.Join(runDir, "store-probe")
	if err := copyStore(snap.dir, dir); err != nil {
		return nil, err
	}
	d, _, err := startDaemon(ctx, cfg.daemon, dir, filepath.Join(runDir, "daemon-probe.log"))
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	cl := newClient("http://"+d.addr, 2, snap)
	defer cl.close()
	src := workloads["hits"].source(cfg.seed, purposeProbe, snap)
	gc0, slow0, err := gcCounts(cl.hc, "http://"+d.addr)
	if err != nil {
		return nil, err
	}
	w, err := openLoop(ctx, src, int(probeRate*probeDur.Seconds()), probeRate, 2,
		func(i int, o *op, due time.Time) outcome { return cl.do(i, o, due, false) })
	if err != nil {
		return nil, err
	}
	gc1, slow1, err := gcCounts(cl.hc, "http://"+d.addr)
	if err != nil {
		return nil, err
	}
	pr := &probeResult{RateOpsPerS: probeRate, Seconds: probeDur.Seconds(), GCCycles: gc1 - gc0, GCSlowPauses: slow1 - slow0}
	for _, out := range w.outcomes {
		if out.done {
			pr.Attempted++
			if !out.ok {
				pr.Failed++
			}
		}
	}
	cold, err := probeColdOp(cfg.seed)
	if err != nil {
		return nil, err
	}
	pr.ColdOp = "ok"
	if out := cl.do(0, cold, time.Now(), false); !out.ok {
		pr.ColdOp = out.err
	}
	ov, err := readOverload(cl.hc, "http://"+d.addr)
	if err != nil {
		return nil, err
	}
	pr.SLOBreaches, pr.Sheds = ov.SLOBreaches, ov.Sheds
	cl.close()
	stopped = true
	d.stop()
	if pr.MaxLevel, err = maxBrownoutLevel(d.logPath); err != nil {
		return nil, err
	}
	return pr, nil
}

// probeColdOp is the first synchronous op of the probe's cold stream.
func probeColdOp(seed uint64) (*op, error) {
	for i := 0; ; i++ {
		o, err := coldOp(seed, purposeProbe, i)
		if err != nil || o.kind == kindSimulate {
			return o, err
		}
	}
}

func (pr *probeResult) String() string {
	return fmt.Sprintf("%d of %d hits failed at %d ops/s; %d of %d GC pauses over %gs; brownout max level %d; SLO breaches %v; then a cold op: %s",
		pr.Failed, pr.Attempted, int(pr.RateOpsPerS), pr.GCSlowPauses, pr.GCCycles, slowGCPause, pr.MaxLevel, pr.SLOBreaches, pr.ColdOp)
}
