package slo

import (
	"context"
	"log/slog"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// State is a rule's judged condition.
type State int

// The rule states, ordered by severity; the numeric values are what
// reprod_slo_status{rule} exports.
const (
	// StateOK: the objective holds and the burn rates say the budget
	// is not being spent.
	StateOK State = iota
	// StateWarn: the objective holds right now, but recent violations
	// are burning the budget faster than allowed (fast burn ≥ 1) —
	// the recovering/degrading edge around a breach.
	StateWarn
	// StateBreach: the windowed value violates the objective at this
	// tick.
	StateBreach
)

// String returns the state's wire name.
func (s State) String() string {
	switch s {
	case StateWarn:
		return "warn"
	case StateBreach:
		return "breach"
	}
	return "ok"
}

// slowBurnFactor sizes the slow burn window as a multiple of the
// rule's own window — the classic fast/slow multi-window pair: the
// fast window catches an active incident, the slow one a budget
// leaking away over a longer stretch.
const slowBurnFactor = 6

// maxTicks bounds each rule's retained evaluation history (the burn
// windows and the dashboard sparkline read it).
const maxTicks = 1024

// tick is one evaluation instant.
type tick struct {
	at       time.Time
	v        float64 // NaN when the window had no data
	violated bool
}

// ruleState is one rule plus its evaluation history and exports.
type ruleState struct {
	rule Rule

	state      State
	noData     bool
	value      float64 // NaN when noData
	burnFast   float64
	burnSlow   float64
	breaches   uint64
	lastChange time.Time

	ticks []tick // ring, latest at (next-1+len)%len
	next  int
	n     int

	statusG   *obs.Gauge
	breachesC *obs.Counter
}

// Engine evaluates a rule set against a tsdb.Ring every tick. Wire it
// with New, then drive Tick from a collection loop (cmd/reprod ticks
// it every -obs-scrape-interval, followed by the brownout controller).
// All read accessors are safe concurrently with Tick.
type Engine struct {
	ring     *tsdb.Ring
	logger   *slog.Logger
	interval time.Duration

	mu    sync.Mutex
	rules []*ruleState
}

// Config wires an Engine.
type Config struct {
	// Ring is the snapshot history the rules read. Required.
	Ring *tsdb.Ring
	// Registry receives the reprod_slo_status{rule} and
	// reprod_slo_breaches_total{rule} families. Required.
	Registry *obs.Registry
	// Rules is the evaluated rule set.
	Rules []Rule
	// Interval is the expected tick cadence (informational: exported
	// on /v1/slo and the dashboard).
	Interval time.Duration
	// Logger receives state-transition lines; nil discards.
	Logger *slog.Logger
}

// New returns an engine for the rule set, registering the per-rule
// status gauge and breach counter children on cfg.Registry.
func New(cfg Config) *Engine {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	e := &Engine{ring: cfg.Ring, logger: logger, interval: cfg.Interval}
	statusVec := cfg.Registry.GaugeVec("reprod_slo_status",
		"Current SLO rule state: 0 ok, 1 warn, 2 breach.", "rule")
	breachVec := cfg.Registry.CounterVec("reprod_slo_breaches_total",
		"Transitions of the rule into the breach state.", "rule")
	for _, r := range cfg.Rules {
		rs := &ruleState{
			rule:      r,
			value:     math.NaN(),
			noData:    true,
			ticks:     make([]tick, maxTicks),
			statusG:   statusVec.With(r.Name),
			breachesC: breachVec.With(r.Name),
		}
		e.rules = append(e.rules, rs)
	}
	return e
}

// Tick captures one registry snapshot into the ring and evaluates
// every rule against the updated history. now is injectable so tests
// drive deterministic clocks; production passes time.Now().
func (e *Engine) Tick(now time.Time) {
	e.ring.Collect(now)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rs := range e.rules {
		e.evaluate(rs, now)
	}
}

// evaluate runs one rule at one instant. Called under e.mu.
func (e *Engine) evaluate(rs *ruleState, now time.Time) {
	r := &rs.rule
	v, ok := r.Eval(e.ring)
	noData := !ok || math.IsNaN(v)
	violated := !noData && r.Violates(v, 1)

	rs.ticks[rs.next] = tick{at: now, v: v, violated: violated}
	rs.next = (rs.next + 1) % len(rs.ticks)
	if rs.n < len(rs.ticks) {
		rs.n++
	}

	rs.burnFast = rs.burn(now, r.Window)
	rs.burnSlow = rs.burn(now, slowBurnFactor*r.Window)
	rs.value = v
	rs.noData = noData

	next := StateOK
	switch {
	case violated:
		next = StateBreach
	case rs.burnFast >= 1:
		next = StateWarn
	}
	if next != rs.state {
		level := slog.LevelInfo
		if next == StateBreach {
			level = slog.LevelWarn
		}
		e.logger.Log(context.Background(), level, "slo state change",
			"rule", r.Name, "from", rs.state.String(), "to", next.String(),
			"value", v, "threshold", r.Threshold, "window", r.Window,
			"burn_fast", rs.burnFast, "burn_slow", rs.burnSlow)
		if next == StateBreach {
			rs.breaches++
			rs.breachesC.Inc()
		}
		rs.state = next
		rs.lastChange = now
	}
	rs.statusG.Set(float64(next))
}

// burn returns the budget burn rate over the trailing window: the
// fraction of evaluation ticks inside it that violated, divided by
// the rule's budget. 1.0 means the budget is being spent exactly at
// the allowed pace; no-data ticks count as clean.
func (rs *ruleState) burn(now time.Time, window time.Duration) float64 {
	cut := now.Add(-window)
	var total, bad int
	for i := 0; i < rs.n; i++ {
		t := &rs.ticks[(rs.next-1-i+2*len(rs.ticks))%len(rs.ticks)]
		if t.at.Before(cut) {
			break
		}
		total++
		if t.violated {
			bad++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total) / rs.rule.Budget
}

// RuleStatus is one rule's externally visible evaluation state — the
// /v1/slo and /statsz shape. Value is a pointer because the windowed
// value is absent (not zero) when the window holds no data, and NaN
// does not survive JSON.
type RuleStatus struct {
	Name          string   `json:"name"`
	Expr          string   `json:"expr"`
	Op            string   `json:"op"`
	Threshold     float64  `json:"threshold"`
	WindowSeconds float64  `json:"window_seconds"`
	BudgetPct     float64  `json:"budget_pct"`
	State         string   `json:"state"`
	NoData        bool     `json:"no_data,omitempty"`
	Value         *float64 `json:"value,omitempty"`
	BurnFast      float64  `json:"burn_fast"`
	BurnSlow      float64  `json:"burn_slow"`
	Breaches      uint64   `json:"breaches"`
	// LastChange is when the rule last changed state; zero until the
	// first transition.
	LastChange *time.Time `json:"last_change,omitempty"`
}

// Status is the full /v1/slo payload.
type Status struct {
	At              time.Time    `json:"at"`
	IntervalSeconds float64      `json:"interval_seconds,omitempty"`
	HistoryLen      int          `json:"history_len"`
	Rules           []RuleStatus `json:"rules"`
}

// Status snapshots every rule's current evaluation state.
func (e *Engine) Status(now time.Time) Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{
		At:         now,
		HistoryLen: e.ring.Len(),
		Rules:      make([]RuleStatus, 0, len(e.rules)),
	}
	if e.interval > 0 {
		st.IntervalSeconds = e.interval.Seconds()
	}
	for _, rs := range e.rules {
		op := ">"
		if rs.rule.Less {
			op = "<"
		}
		r := RuleStatus{
			Name:          rs.rule.Name,
			Expr:          rs.rule.Expr,
			Op:            op,
			Threshold:     rs.rule.Threshold,
			WindowSeconds: rs.rule.Window.Seconds(),
			BudgetPct:     rs.rule.Budget * 100,
			State:         rs.state.String(),
			NoData:        rs.noData,
			BurnFast:      rs.burnFast,
			BurnSlow:      rs.burnSlow,
			Breaches:      rs.breaches,
		}
		if !rs.noData {
			v := rs.value
			r.Value = &v
		}
		if !rs.lastChange.IsZero() {
			t := rs.lastChange
			r.LastChange = &t
		}
		st.Rules = append(st.Rules, r)
	}
	return st
}

// history returns the rule's evaluated values, oldest first — the
// dashboard sparkline. Called under e.mu by dash.go.
func (rs *ruleState) history() []tsdb.Sample {
	out := make([]tsdb.Sample, 0, rs.n)
	for i := rs.n - 1; i >= 0; i-- {
		t := &rs.ticks[(rs.next-1-i+2*len(rs.ticks))%len(rs.ticks)]
		out = append(out, tsdb.Sample{At: t.at, V: t.v})
	}
	return out
}
