package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// runtimeTTL caches one ReadMemStats per scrape burst: a scrape reads
// several function-backed gauges back to back, and ReadMemStats
// stops the world, so each gauge must not trigger its own read.
const runtimeTTL = 50 * time.Millisecond

// RuntimeStats is the /statsz runtime section: the same numbers the
// runtime collector exports on /metrics, read from the same snapshot.
type RuntimeStats struct {
	Goroutines   int     `json:"goroutines"`
	HeapAlloc    uint64  `json:"heap_alloc_bytes"`
	HeapSys      uint64  `json:"heap_sys_bytes"`
	HeapObjects  uint64  `json:"heap_objects"`
	NextGC       uint64  `json:"next_gc_bytes"`
	GCCycles     uint32  `json:"gc_cycles"`
	LastGCPause  float64 `json:"last_gc_pause_seconds"`
	TotalGCPause float64 `json:"total_gc_pause_seconds"`
}

// RuntimeCollector exports Go runtime health — goroutine and heap
// gauges plus a GC-pause histogram — on a Registry, and serves the
// same snapshot to /statsz via Stats (one source of truth per number).
type RuntimeCollector struct {
	mu        sync.Mutex
	ms        runtime.MemStats
	fetched   time.Time
	lastNumGC uint32

	gcCycles *Counter
	gcPause  *Histogram
}

// RegisterRuntime wires the runtime collector's metrics into reg and
// returns the collector for /statsz. The gauges are function-backed:
// each scrape refreshes one shared MemStats snapshot (TTL-deduped so
// the stop-the-world read happens once per scrape, not once per
// metric) and harvests GC pauses observed since the previous refresh
// into the pause histogram.
func RegisterRuntime(reg *Registry) *RuntimeCollector {
	c := &RuntimeCollector{
		gcCycles: reg.Counter("reprod_go_gc_cycles_total",
			"Completed GC cycles."),
		gcPause: reg.Histogram("reprod_go_gc_pause_seconds",
			"Stop-the-world GC pause durations.",
			GCPauseBuckets()),
	}
	reg.GaugeFunc("reprod_go_goroutines",
		"Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("reprod_go_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 { return float64(c.memStats().HeapAlloc) })
	reg.GaugeFunc("reprod_go_heap_sys_bytes",
		"Bytes of heap memory obtained from the OS.",
		func() float64 { return float64(c.memStats().HeapSys) })
	reg.GaugeFunc("reprod_go_heap_objects",
		"Number of allocated heap objects.",
		func() float64 { return float64(c.memStats().HeapObjects) })
	reg.GaugeFunc("reprod_go_next_gc_bytes",
		"Heap size target for the next GC cycle.",
		func() float64 { return float64(c.memStats().NextGC) })
	return c
}

// GCPauseBuckets is the bucket schema of reprod_go_gc_pause_seconds:
// powers of four from 1µs, plus an edge at 10ms, the threshold of the
// daemon's default gc_pause_p99 SLO rule. Quantiles interpolate inside
// a bucket, so a bucket straddling the threshold would let one pause
// under it read as a p99 over it whenever the rule's window holds
// fewer than about 50 pauses.
func GCPauseBuckets() []float64 {
	return append(ExpBuckets(1e-6, 4, 10), 10e-3)
}

// memStats returns the cached MemStats, refreshing it past the TTL.
// Refreshes also advance the GC counter and harvest new pause samples
// into the histogram, so the histogram fills as a side effect of
// scraping (or of /statsz reads) with no background goroutine.
func (c *RuntimeCollector) memStats() runtime.MemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Since(c.fetched) < runtimeTTL {
		return c.ms
	}
	runtime.ReadMemStats(&c.ms)
	c.fetched = time.Now()
	if n := c.ms.NumGC; n > c.lastNumGC {
		c.gcCycles.Add(uint64(n - c.lastNumGC))
		// PauseNs is a ring of the last 256 pauses; harvest only the
		// cycles seen since the previous refresh (capped at the ring
		// size — older pauses are already overwritten).
		first := c.lastNumGC
		if n-first > 256 {
			first = n - 256
		}
		for i := first; i < n; i++ {
			c.gcPause.Observe(float64(c.ms.PauseNs[(i+255)%256]) / 1e9)
		}
		c.lastNumGC = n
	}
	return c.ms
}

// Stats returns the /statsz runtime section from the same MemStats
// snapshot (and pause histogram) the /metrics gauges read.
func (c *RuntimeCollector) Stats() RuntimeStats {
	ms := c.memStats()
	var last float64
	if ms.NumGC > 0 {
		last = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	}
	return RuntimeStats{
		Goroutines:   runtime.NumGoroutine(),
		HeapAlloc:    ms.HeapAlloc,
		HeapSys:      ms.HeapSys,
		HeapObjects:  ms.HeapObjects,
		NextGC:       ms.NextGC,
		GCCycles:     ms.NumGC,
		LastGCPause:  last,
		TotalGCPause: float64(ms.PauseTotalNs) / 1e9,
	}
}

// BuildVersion resolves the binary's version: the main module version
// when built from a tagged module, else the VCS revision (short), else
// "dev".
func BuildVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	if v := info.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return "dev"
}

// RegisterBuildInfo exports the constant reprod_build_info gauge —
// value 1, identity in the labels — the standard Prometheus idiom for
// joining version metadata onto any other series.
func RegisterBuildInfo(reg *Registry, version string) {
	reg.GaugeVec("reprod_build_info",
		"Build metadata; constant 1 with the identity in the labels.",
		"version", "go_version").
		With(version, runtime.Version()).Set(1)
}
