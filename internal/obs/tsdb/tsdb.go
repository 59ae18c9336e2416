// Package tsdb retains a short in-process history of whole-registry
// metric snapshots and derives windowed views from it: per-second
// rates from counter deltas, interpolated quantiles from histogram
// bucket deltas, and per-sample series for sparklines.
//
// The shape is "record locally, evaluate locally": the serving stack
// already measures everything (internal/obs), but every number used
// to vanish between scrapes. A Ring captures the registry every
// -obs-scrape-interval into a fixed ring of the last -obs-history
// snapshots, and the SLO engine (internal/obs/slo), /statsz, and
// /debug/dash all read windows from it — no external Prometheus
// needed to ask "what was p99 queue wait over the last minute".
//
// Concurrency: Collect is single-writer (one collector goroutine);
// readers take a read lock only around slot access, and the recording
// hot paths (Counter.Add, Histogram.Observe) stay lock-free — the
// ring reads the same atomics a scrape does. Snapshot storage is
// double-buffered: each Collect fills the buffer evicted two
// generations ago, so steady-state capture allocates nothing
// (pinned by BenchmarkRegistrySnapshot in the repository root).
package tsdb

import (
	"math"
	"sync"
	"time"

	"repro/internal/obs"
)

// Selector names the series a windowed query aggregates: a metric
// family plus optional label equality matches. A nil/empty Labels map
// matches (and sums) every child in the family — the common case for
// "p99 across all priority classes".
type Selector struct {
	Metric string
	Labels map[string]string
}

// matches reports whether a series with the family's label schema and
// the point's values satisfies every equality in the selector.
func (sel Selector) matches(names []string, values []string) bool {
	if len(sel.Labels) == 0 {
		return true
	}
	for k, want := range sel.Labels {
		found := false
		for i, n := range names {
			if n == k {
				found = values[i] == want
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Sample is one derived value at one capture instant; V is NaN where
// the instant has no data (first sample of a rate, empty histogram).
type Sample struct {
	At time.Time
	V  float64
}

// Ring is the fixed-size snapshot history. Construct with NewRing.
type Ring struct {
	reg *obs.Registry

	mu    sync.RWMutex
	slots []*obs.Snapshot // chronological module next; nil until filled
	next  int
	count int

	// spare is the buffer recycled into the next Collect. Only the
	// collector touches it, and never while it is visible in slots —
	// eviction happens under mu before the buffer is reused.
	spare *obs.Snapshot
}

// NewRing returns a ring retaining the most recent history captures
// of reg (minimum 2 — windowed derivations need a delta).
func NewRing(reg *obs.Registry, history int) *Ring {
	if history < 2 {
		history = 2
	}
	return &Ring{reg: reg, slots: make([]*obs.Snapshot, history)}
}

// Collect captures the registry now and rotates it into the ring.
// Single-writer: callers must not invoke Collect concurrently with
// itself (the collector loop is the one caller in production).
func (r *Ring) Collect(now time.Time) {
	snap := r.reg.Collect(r.spare, now)
	r.spare = nil
	r.mu.Lock()
	evicted := r.slots[r.next]
	r.slots[r.next] = snap
	r.next = (r.next + 1) % len(r.slots)
	if r.count < len(r.slots) {
		r.count++
	}
	r.mu.Unlock()
	// evicted is no longer reachable through the ring; readers that
	// entered before the swap finished under the read lock.
	r.spare = evicted
}

// Len reports how many snapshots the ring currently holds.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.count
}

// view runs fn with the retained snapshots in chronological order
// under the read lock; fn must not retain the slice or the snapshots.
func (r *Ring) view(fn func(snaps []*obs.Snapshot)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snaps := make([]*obs.Snapshot, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.slots)
	}
	for i := 0; i < r.count; i++ {
		snaps = append(snaps, r.slots[(start+i)%len(r.slots)])
	}
	fn(snaps)
}

// window returns the newest snapshot and the oldest one still inside
// the trailing window (the delta base), or ok=false with fewer than
// two snapshots in range.
func windowEnds(snaps []*obs.Snapshot, window time.Duration) (old, new *obs.Snapshot, ok bool) {
	if len(snaps) < 2 {
		return nil, nil, false
	}
	newest := snaps[len(snaps)-1]
	cut := newest.At.Add(-window)
	old = snaps[len(snaps)-2]
	for i := len(snaps) - 2; i >= 0; i-- {
		if snaps[i].At.Before(cut) {
			break
		}
		old = snaps[i]
	}
	if !old.At.Before(newest.At) {
		return nil, nil, false
	}
	return old, newest, true
}

// sumMatches sums the scalar values of the selector's series in the
// family, reporting whether any series matched.
func sumMatches(f *obs.FamilySnap, sel Selector) (float64, bool) {
	var total float64
	matched := false
	for i := range f.Points {
		if sel.matches(f.LabelNames, f.Points[i].LabelValues) {
			total += f.Points[i].Value
			matched = true
		}
	}
	return total, matched
}

// Gauge returns the newest captured value of the selected series
// (summed across matches). ok is false when the ring is empty or
// nothing matches.
func (r *Ring) Gauge(sel Selector) (v float64, ok bool) {
	v = math.NaN()
	r.view(func(snaps []*obs.Snapshot) {
		if len(snaps) == 0 {
			return
		}
		f := snaps[len(snaps)-1].Family(sel.Metric)
		if f == nil {
			return
		}
		v, ok = sumMatches(f, sel)
	})
	return v, ok
}

// Rate returns the selected counter's per-second increase over the
// trailing window, summed across matching series. Series absent at
// the window start are treated as starting from zero (they were).
// ok is false without two snapshots or a matching family.
func (r *Ring) Rate(sel Selector, window time.Duration) (v float64, ok bool) {
	v = math.NaN()
	r.view(func(snaps []*obs.Snapshot) {
		old, newest, have := windowEnds(snaps, window)
		if !have {
			return
		}
		d, matched := counterDelta(old, newest, sel)
		if !matched {
			return
		}
		v, ok = d/newest.At.Sub(old.At).Seconds(), true
	})
	return v, ok
}

// counterDelta sums newest-minus-old across the selector's series.
func counterDelta(old, newest *obs.Snapshot, sel Selector) (float64, bool) {
	nf := newest.Family(sel.Metric)
	if nf == nil {
		return 0, false
	}
	of := old.Family(sel.Metric)
	var delta float64
	matched := false
	for i := range nf.Points {
		p := &nf.Points[i]
		if !sel.matches(nf.LabelNames, p.LabelValues) {
			continue
		}
		matched = true
		var base float64
		if of != nil {
			if op := of.Point(p.Key); op != nil {
				base = op.Value
			}
		}
		if d := p.Value - base; d > 0 {
			delta += d
		}
	}
	return delta, matched
}

// Quantile returns the interpolated q-quantile of the selected
// histogram's observations inside the trailing window, aggregated
// across matching series by summing bucket deltas. The value is NaN
// (with ok=true) when the window holds zero observations; ok is
// false without two snapshots or a matching histogram family.
func (r *Ring) Quantile(sel Selector, q float64, window time.Duration) (v float64, ok bool) {
	v = math.NaN()
	r.view(func(snaps []*obs.Snapshot) {
		old, newest, have := windowEnds(snaps, window)
		if !have {
			return
		}
		upper, counts, matched := bucketDelta(old, newest, sel, nil)
		if !matched {
			return
		}
		v, ok = HistogramQuantile(q, upper, counts), true
	})
	return v, ok
}

// bucketDelta sums the per-bucket count deltas of the selector's
// histogram series between two snapshots into buf.
func bucketDelta(old, newest *obs.Snapshot, sel Selector, buf []uint64) (upper []float64, counts []uint64, ok bool) {
	nf := newest.Family(sel.Metric)
	if nf == nil || nf.Kind != obs.KindHistogram {
		return nil, nil, false
	}
	of := old.Family(sel.Metric)
	counts = append(buf[:0], make([]uint64, len(nf.Upper)+1)...)
	matched := false
	for i := range nf.Points {
		p := &nf.Points[i]
		if !sel.matches(nf.LabelNames, p.LabelValues) || len(p.Buckets) != len(counts) {
			continue
		}
		matched = true
		var op *obs.Point
		if of != nil {
			op = of.Point(p.Key)
		}
		for b := range counts {
			d := p.Buckets[b]
			if op != nil && len(op.Buckets) == len(counts) && op.Buckets[b] <= d {
				d -= op.Buckets[b]
			}
			counts[b] += d
		}
	}
	return nf.Upper, counts, matched
}

// HistogramRate returns the selected histogram's per-second rates of
// observed total (sum) and observation count over the trailing
// window, summed across matching series. sumRate/countRate is then
// the mean observed value inside the window — e.g. the mean job run
// duration, which admission control turns into a drain-rate-derived
// Retry-After. Histogram snapshot points carry their data in
// Sum/Count/Buckets (Value is zero), so Rate cannot serve this; ok is
// false without two snapshots or a matching histogram family.
func (r *Ring) HistogramRate(sel Selector, window time.Duration) (sumRate, countRate float64, ok bool) {
	sumRate, countRate = math.NaN(), math.NaN()
	r.view(func(snaps []*obs.Snapshot) {
		old, newest, have := windowEnds(snaps, window)
		if !have {
			return
		}
		nf := newest.Family(sel.Metric)
		if nf == nil || nf.Kind != obs.KindHistogram {
			return
		}
		of := old.Family(sel.Metric)
		var dSum, dCount float64
		matched := false
		for i := range nf.Points {
			p := &nf.Points[i]
			if !sel.matches(nf.LabelNames, p.LabelValues) {
				continue
			}
			matched = true
			var baseSum float64
			var baseCount uint64
			if of != nil {
				if op := of.Point(p.Key); op != nil {
					baseSum, baseCount = op.Sum, op.Count
				}
			}
			if p.Sum > baseSum {
				dSum += p.Sum - baseSum
			}
			if p.Count > baseCount {
				dCount += float64(p.Count - baseCount)
			}
		}
		if !matched {
			return
		}
		dt := newest.At.Sub(old.At).Seconds()
		sumRate, countRate, ok = dSum/dt, dCount/dt, true
	})
	return sumRate, countRate, ok
}

// SeriesGauge returns the selected gauge's value at every retained
// capture — the sparkline view. Instants where nothing matched carry
// NaN.
func (r *Ring) SeriesGauge(sel Selector) []Sample {
	var out []Sample
	r.view(func(snaps []*obs.Snapshot) {
		out = make([]Sample, 0, len(snaps))
		for _, s := range snaps {
			v := math.NaN()
			if f := s.Family(sel.Metric); f != nil {
				if sum, ok := sumMatches(f, sel); ok {
					v = sum
				}
			}
			out = append(out, Sample{At: s.At, V: v})
		}
	})
	return out
}

// SeriesRate returns the selected counter's per-second rate between
// each pair of consecutive captures (one sample fewer than the ring
// holds).
func (r *Ring) SeriesRate(sel Selector) []Sample {
	var out []Sample
	r.view(func(snaps []*obs.Snapshot) {
		if len(snaps) < 2 {
			return
		}
		out = make([]Sample, 0, len(snaps)-1)
		for i := 1; i < len(snaps); i++ {
			v := math.NaN()
			dt := snaps[i].At.Sub(snaps[i-1].At).Seconds()
			if d, ok := counterDelta(snaps[i-1], snaps[i], sel); ok && dt > 0 {
				v = d / dt
			}
			out = append(out, Sample{At: snaps[i].At, V: v})
		}
	})
	return out
}

// SeriesQuantile returns the interpolated q-quantile of observations
// between each pair of consecutive captures. Instants with no new
// observations carry NaN.
func (r *Ring) SeriesQuantile(sel Selector, q float64) []Sample {
	var out []Sample
	r.view(func(snaps []*obs.Snapshot) {
		if len(snaps) < 2 {
			return
		}
		out = make([]Sample, 0, len(snaps)-1)
		var buf []uint64
		for i := 1; i < len(snaps); i++ {
			v := math.NaN()
			var upper []float64
			var counts []uint64
			var ok bool
			if upper, counts, ok = bucketDelta(snaps[i-1], snaps[i], sel, buf); ok {
				v = HistogramQuantile(q, upper, counts)
				buf = counts
			}
			out = append(out, Sample{At: snaps[i].At, V: v})
		}
	})
	return out
}
