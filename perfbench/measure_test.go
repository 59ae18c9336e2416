package main

import (
	"testing"
	"time"
)

// TestSummarizeQuietSlices checks that the latency metrics come from
// the slices and parts without steal: the first half of a 4 s window is
// steal-free with 1 ms ops, the second loses two clock ticks a slice and
// its ops take 10 ms.
func TestSummarizeQuietSlices(t *testing.T) {
	const slices, perSlice = 40, 100
	start := time.Unix(1_000_000, 0)
	m := &meter{}
	for k := 0; k <= slices; k++ {
		steal := 0.0
		if k > slices/2 {
			steal = float64(2 * (k - slices/2))
		}
		m.at = append(m.at, start.Add(time.Duration(k)*sliceLen))
		m.cpu = append(m.cpu, float64(k)*0.01)
		m.host = append(m.host, cpuTimes{total: float64(20 * k), steal: steal})
	}
	var w window
	for k := 0; k < slices; k++ {
		lat := time.Millisecond
		if k >= slices/2 {
			lat = 10 * time.Millisecond
		}
		for i := 0; i < perSlice; i++ {
			due := m.at[k].Add(time.Duration(i) * sliceLen / perSlice)
			w.outcomes = append(w.outcomes, outcome{done: true, ok: true, due: due, end: due.Add(lat), latency: lat})
		}
	}
	e := summarize(w, m)
	if e.attempted != slices*perSlice || e.failed != 0 || e.okFrac != 1 {
		t.Fatalf("attempted %d failed %d okFrac %g", e.attempted, e.failed, e.okFrac)
	}
	if e.p99Ms != 1 {
		t.Errorf("p99 %g ms, want 1 (the steal-free slices)", e.p99Ms)
	}
	if e.p50Ms != 1 || e.parts != 4 || e.quietParts != 2 {
		t.Errorf("p50 %g ms over %d of %d parts, want 1 ms over 2 of 4", e.p50Ms, e.quietParts, e.parts)
	}
	if e.quietSteal != 0 || e.steal != 0.05 {
		t.Errorf("steal %g (quiet %g), want 0.05 (0)", e.steal, e.quietSteal)
	}
}
