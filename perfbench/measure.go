package main

import (
	"context"
	"sort"
	"time"
)

// A timed window is sampled in slices of sliceLen, grouped into parts of
// partSlices slices (one second). Throughput, CPU per op and p50 latency
// come from the parts the host disturbed least; p99 latency comes from
// the ops due in the slices it disturbed least (see summarize).
const (
	sliceLen   = 100 * time.Millisecond
	partSlices = 10
)

// meter samples one process's CPU time and the host's CPU times at the
// slice boundaries of a timed window.
type meter struct {
	pid  int
	at   []time.Time
	cpu  []float64
	host []cpuTimes
	stop chan struct{}
	done chan struct{}
	err  error
}

func (m *meter) sample() error {
	cpu, err := procCPUSeconds(m.pid)
	if err != nil {
		return err
	}
	host, err := readCPUTimes()
	if err != nil {
		return err
	}
	m.at, m.cpu, m.host = append(m.at, time.Now()), append(m.cpu, cpu), append(m.host, host)
	return nil
}

// startMeter samples now and at each inner slice boundary of a window of
// length dur starting now.
func startMeter(pid int, dur time.Duration) (*meter, error) {
	m := &meter{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	if err := m.sample(); err != nil {
		return nil, err
	}
	start := m.at[0]
	go func() {
		defer close(m.done)
		for k := 1; time.Duration(k)*sliceLen < dur; k++ {
			select {
			case <-m.stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * sliceLen))):
			}
			if m.err = m.sample(); m.err != nil {
				return
			}
		}
	}()
	return m, nil
}

// finish takes the closing sample once every op of the window is done.
func (m *meter) finish() error {
	close(m.stop)
	<-m.done
	if m.err != nil {
		return m.err
	}
	return m.sample()
}

// minQuietOps is the fewest successful ops the selected parts, and the
// selected slices, must hold, so that at least ten lie beyond the p99.
const minQuietOps = 1000

// summarize computes the window metrics both runs share. An op belongs
// to the slice it completed in for throughput and CPU, and to the slice
// it was due in for latency.
//
// Parts are taken in order of rising host steal share until they make
// up at least half the window and hold at least minQuietOps successful
// ops; throughput, CPU per op and p50 latency are medians over those
// parts. p99 latency is over the pooled ops of the quietest slices:
// whole steal levels at a time (a slice's steal is a count of clock
// ticks), until they hold a quarter of the window's successful ops and
// at least minQuietOps. A stolen vCPU stalls every op in flight for
// milliseconds, which is the tail itself; on a shared host, steal
// arrives in short bursts that a 100 ms slice can step around, while a
// slower program moves every slice. Steal over the whole window and
// over the quiet parts is reported beside the metrics. Latency is over
// successful ops; failures count in okFrac.
func summarize(w window, m *meter) e2e {
	var e e2e
	n := len(m.at) - 1
	sliceOf := func(t time.Time) int {
		k := sort.Search(n, func(k int) bool { return t.Before(m.at[k+1]) })
		return min(k, n-1)
	}
	lats := make([][]float64, n)
	oks := make([]int, n)
	tried := make([]int, n)
	var lag []float64
	ok := 0
	for _, out := range w.outcomes {
		if !out.done {
			continue
		}
		e.attempted++
		lag = append(lag, float64(out.lag)/1e6)
		k := sliceOf(out.end)
		tried[k]++
		if !out.ok {
			e.failed++
			continue
		}
		ok++
		oks[k]++
		d := sliceOf(out.due)
		lats[d] = append(lats[d], float64(out.latency)/1e6)
	}

	// p99 over the quietest slices.
	stolen := make([]float64, n)
	order := make([]int, n)
	for k := range order {
		order[k], stolen[k] = k, m.host[k+1].steal-m.host[k].steal
	}
	sort.SliceStable(order, func(a, b int) bool { return stolen[order[a]] < stolen[order[b]] })
	var pooled []float64
	for i, k := range order {
		if i > 0 && stolen[k] > stolen[order[i-1]] && len(pooled) >= max(minQuietOps, ok/4) {
			break
		}
		pooled = append(pooled, lats[k]...)
	}
	e.p99Ms = quantile(pooled, 0.99)

	// Throughput, CPU per op and p50 over the quietest parts.
	np := (n + partSlices - 1) / partSlices
	bound := func(p int) int { return min(p*partSlices, n) }
	steal := make([]float64, np)
	porder := make([]int, np)
	for p := range porder {
		porder[p], steal[p] = p, stealShare(m.host[bound(p)], m.host[bound(p+1)])
	}
	sort.SliceStable(porder, func(a, b int) bool { return steal[porder[a]] < steal[porder[b]] })
	var tput, cpu, p50 []float64
	var quiet0, quiet1 cpuTimes
	quietOps := 0
	for i, p := range porder {
		if i >= (np+1)/2 && quietOps >= minQuietOps {
			break
		}
		lo, hi := bound(p), bound(p+1)
		var partLats []float64
		partOks, partTried := 0, 0
		for k := lo; k < hi; k++ {
			partLats = append(partLats, lats[k]...)
			partOks += oks[k]
			partTried += tried[k]
		}
		tput = append(tput, float64(partOks)/m.at[hi].Sub(m.at[lo]).Seconds())
		if partTried > 0 {
			cpu = append(cpu, (m.cpu[hi]-m.cpu[lo])*1e3/float64(partTried))
		}
		if len(partLats) > 0 { // a part where every op failed has no latency
			p50 = append(p50, quantile(partLats, 0.5))
		}
		quietOps += len(partLats)
		quiet0.total += m.host[lo].total
		quiet0.steal += m.host[lo].steal
		quiet1.total += m.host[hi].total
		quiet1.steal += m.host[hi].steal
		e.quietParts++
	}
	e.parts = np
	e.tput, e.cpuMsPerOp, e.p50Ms = quantile(tput, 0.5), quantile(cpu, 0.5), quantile(p50, 0.5)
	e.steal, e.quietSteal = stealShare(m.host[0], m.host[n]), stealShare(quiet0, quiet1)
	e.lagP99Ms = quantile(lag, 0.99)
	if e.attempted > 0 {
		e.okFrac = float64(ok) / float64(e.attempted)
	}
	return e
}

// measureWindow drives src for dur under the workload's client model
// and summarizes it, sampling pid's CPU time and the host's CPU times
// at the slice boundaries.
func measureWindow(ctx context.Context, wl workload, src *opSource, dur time.Duration, exec func(int, *op, time.Time) outcome, pid int) (window, e2e, error) {
	m, err := startMeter(pid, dur)
	if err != nil {
		return window{}, e2e{}, err
	}
	w, err := wl.drive(ctx, src, dur, exec)
	if ferr := m.finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return window{}, e2e{}, err
	}
	e := summarize(w, m)
	if e.attempted == 0 {
		return w, e, errNoOps
	}
	return w, e, nil
}
