// Package obs is the serving stack's dependency-free observability
// subsystem: atomic counters, gauges, and fixed-bucket histograms
// registered in a named Registry and exposed in Prometheus text
// format (see expose.go), plus request-ID helpers for request-scoped
// tracing (see reqid.go).
//
// The design splits the two speeds observability runs at. Recording —
// Counter.Add, Gauge.Set, Histogram.Observe — is the hot path: every
// operation is lock-free, allocation-free, and safe for unbounded
// concurrency, so instrumentation can sit inside the scheduler's
// dequeue path or an engine step loop without perturbing what it
// measures. Registration and scraping are the cold path: they take
// the registry lock, and registration validates names eagerly
// (panicking on malformed metric or label names, which are programmer
// errors wired at startup, never request data).
//
// Metrics with the same name form one family sharing HELP/TYPE
// metadata; labeled children are created through the Vec types
// (CounterVec.With pre-resolves a child once so hot paths hold a
// *Counter directly, never a map lookup). Re-registering an identical
// family returns the existing one, so independent components can
// idempotently wire the same registry.
//
// Components that already keep their own atomic counters (the store
// tiers' Stats snapshots) are exported through function-backed
// children (WithFunc, CounterFunc, GaugeFunc) read at scrape time, so
// one source of truth serves both /metrics and /statsz with no
// parallel counter plumbing.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's Prometheus type.
type Kind int

// The exposition types this registry supports.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing value. The zero value is
// usable but unregistered; obtain registered counters from
// Registry.Counter or CounterVec.With.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// child is one (labelValues, metric) member of a family. Exactly one
// of counter/gauge/hist/fn is set, matching the family's kind (fn may
// back a counter or gauge family).
type child struct {
	labelValues []string
	// key is childKey(labelValues), computed once at creation so
	// scrape-time snapshots can carry a stable series identity without
	// re-joining (and re-allocating) the label values.
	key     string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// fn backs a function child. It is atomic because scrapes read it
	// concurrently with registration, which publishes the child first
	// and may later replace fn.
	fn atomic.Pointer[func() float64]
}

// family is every metric sharing one name: HELP/TYPE metadata, the
// label schema, and the labeled children.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
}

// Registry is a named collection of metric families. The zero value
// is not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the named family, creating it on first registration
// and panicking when a re-registration disagrees with the existing
// schema (kind, help, label names, buckets) — two components claiming
// one name for different meanings is a wiring bug, not a runtime
// condition.
func (r *Registry) family(name, help string, kind Kind, labelNames []string, buckets []float64) *family {
	mustValidName(name)
	for _, l := range labelNames {
		mustValidLabel(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.help != help || !equalStrings(f.labelNames, labelNames) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: conflicting registration of %q", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		children:   make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// childKey joins label values into the child map key. 0x1f (unit
// separator) cannot appear in a well-formed label value often enough
// to matter, and a collision only merges two children's identities —
// it cannot corrupt memory.
func childKey(values []string) string {
	return strings.Join(values, "\x1f")
}

// get returns the child for the given label values, creating it with
// mk on first use. Label arity must match the family schema.
func (f *family) get(values []string, mk func() *child) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk()
	c.labelValues = append([]string(nil), values...)
	c.key = key
	f.children[key] = c
	return c
}

// setFn backs the child for the given label values with fn, creating
// it on first use — with fn already set, so no scrape reads a new
// child without it — and replacing any previous fn.
func (f *family) setFn(values []string, fn func() float64) {
	c := f.get(values, func() *child {
		c := &child{}
		c.fn.Store(&fn)
		return c
	})
	c.fn.Store(&fn)
}

// snapshot returns the children sorted by label values for stable
// exposition.
func (f *family) snapshot() []*child {
	f.mu.Lock()
	kids := make([]*child, 0, len(f.children))
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		kids = append(kids, f.children[k])
	}
	f.mu.Unlock()
	return kids
}

// Counter registers (or returns) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, KindCounter, nil, nil)
	return f.get(nil, func() *child { return &child{counter: new(Counter)} }).counter
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — the collector shape for components that keep their
// own atomics. Re-registering replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, KindCounter, nil, nil)
	f.setFn(nil, fn)
}

// Gauge registers (or returns) the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, KindGauge, nil, nil)
	return f.get(nil, func() *child { return &child{gauge: new(Gauge)} }).gauge
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, KindGauge, nil, nil)
	f.setFn(nil, fn)
}

// Histogram registers (or returns) the unlabeled histogram name with
// the given finite upper bucket bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	buckets = normalizeBuckets(buckets)
	f := r.family(name, help, KindHistogram, nil, buckets)
	return f.get(nil, func() *child { return &child{hist: newHistogram(f.buckets)} }).hist
}

// CounterVec declares a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) the labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, labelNames, nil)}
}

// With returns the child counter for the given label values,
// creating it on first use. Resolve children once at wiring time and
// hold the *Counter on hot paths.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues, func() *child { return &child{counter: new(Counter)} }).counter
}

// WithFunc backs the child for the given label values with a
// scrape-time read of fn (replacing any previous fn).
func (v *CounterVec) WithFunc(fn func() float64, labelValues ...string) {
	v.f.setFn(labelValues, fn)
}

// GaugeVec declares a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) the labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, KindGauge, labelNames, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.get(labelValues, func() *child { return &child{gauge: new(Gauge)} }).gauge
}

// WithFunc backs the child for the given label values with a
// scrape-time read of fn.
func (v *GaugeVec) WithFunc(fn func() float64, labelValues ...string) {
	v.f.setFn(labelValues, fn)
}

// HistogramVec declares a labeled histogram family; every child
// shares the family's buckets.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) the labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, KindHistogram, labelNames, normalizeBuckets(buckets))}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	f := v.f
	return f.get(labelValues, func() *child { return &child{hist: newHistogram(f.buckets)} }).hist
}

// mustValidName panics unless name matches the Prometheus metric name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func mustValidName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// mustValidLabel panics unless l matches [a-zA-Z_][a-zA-Z0-9_]* and
// does not use the reserved __ prefix.
func mustValidLabel(l string) {
	if l == "" || strings.HasPrefix(l, "__") {
		panic(fmt.Sprintf("obs: invalid label name %q", l))
	}
	for i, c := range l {
		ok := c == '_' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
