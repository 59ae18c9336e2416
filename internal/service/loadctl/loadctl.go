// Package loadctl closes the overload control loop: it reads windowed
// queue-wait latency from the metrics history ring (internal/obs/tsdb)
// and the SLO engine's burn-rate states (internal/obs/slo), and moves
// a small integer "brownout level" through hysteresis bands. The
// scheduler consults the level at admission:
//
//	level 0 — normal operation
//	level 1 — shed new batch-class work
//	level 2 — additionally tighten the interactive cost ceiling
//	level 3 — shed all work that is not already cached
//
// The level is exported as the reprod_brownout_level gauge, surfaced
// in /statsz and on /debug/dash, and relaxes one level at a time so
// recovery is as observable as degradation.
package loadctl

import (
	"context"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/tsdb"
)

// The brownout levels, in escalation order.
const (
	// LevelNone: admit everything the static and cost-model admission
	// allow.
	LevelNone = 0
	// LevelShedBatch: reject new batch-class submissions.
	LevelShedBatch = 1
	// LevelTightenInteractive: additionally shrink the cost budget
	// interactive work is admitted against (the scheduler divides the
	// pool's budget by its tighten factor).
	LevelTightenInteractive = 2
	// LevelShedAll: reject every submission; only cached results are
	// served.
	LevelShedAll = 3
	// MaxLevel is the deepest brownout.
	MaxLevel = LevelShedAll
)

// Config wires a Controller.
type Config struct {
	// Ring is the snapshot history the pressure rule reads. Required.
	Ring *tsdb.Ring
	// Registry receives the reprod_brownout_level gauge. Required.
	Registry *obs.Registry
	// Rule is the pressure signal, in the -slo-rule DSL shape
	// (typically a queue-wait quantile: "brownout:
	// p99(reprod_sched_queue_wait_seconds) < 250ms over 30s").
	// Violating it is pressure; satisfying it with margin is calm.
	Rule slo.Rule
	// Engine, when set, contributes its burn-rate states: any rule in
	// breach, or burning its fast window at >= 1, also counts as
	// pressure. Optional.
	Engine *slo.Engine
	// EscalateTicks is how many consecutive pressured ticks raise the
	// level by one (default 2).
	EscalateTicks int
	// RelaxTicks is how many consecutive calm ticks lower the level by
	// one (default 4) — relaxation is deliberately slower than
	// escalation so the controller does not oscillate.
	RelaxTicks int
	// RelaxMargin scales the rule threshold for the calm test: the
	// value must clear margin*threshold (default 0.75) before a tick
	// counts as calm. Values between the margin and the threshold are
	// the hysteresis dead band and hold the current level.
	RelaxMargin float64
	// Logger receives level-transition lines; nil discards.
	Logger *slog.Logger
}

// Controller holds the brownout level. Drive Tick from the collector
// loop (after the SLO engine's Tick, which is what collects the ring
// snapshot — the controller only reads). Level is safe from any
// goroutine.
type Controller struct {
	cfg Config

	level atomic.Int32

	mu          sync.Mutex
	hot         int // consecutive pressured ticks
	calm        int // consecutive calm ticks
	lastValue   float64
	lastHasData bool
	since       time.Time
	escalations uint64
}

// New returns a controller at level 0 and registers its gauge.
func New(cfg Config) *Controller {
	if cfg.EscalateTicks <= 0 {
		cfg.EscalateTicks = 2
	}
	if cfg.RelaxTicks <= 0 {
		cfg.RelaxTicks = 4
	}
	if cfg.RelaxMargin <= 0 || cfg.RelaxMargin >= 1 {
		cfg.RelaxMargin = 0.75
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	c := &Controller{cfg: cfg}
	cfg.Registry.GaugeFunc("reprod_brownout_level",
		"Current brownout level: 0 normal, 1 shed batch, 2 tighten interactive cost, 3 shed all uncached work.",
		func() float64 { return float64(c.level.Load()) })
	return c
}

// Level returns the current brownout level (0..MaxLevel). Lock-free;
// the scheduler calls it on every admission.
func (c *Controller) Level() int { return int(c.level.Load()) }

// Tick evaluates the pressure signal once and moves the level through
// the hysteresis bands. It never collects the ring — the SLO engine
// (or the test) owns the collection tick.
func (c *Controller) Tick(now time.Time) {
	rule := &c.cfg.Rule
	v, ok := rule.Eval(c.cfg.Ring)
	noData := !ok || math.IsNaN(v)

	pressured := !noData && rule.Violates(v, 1)
	if !pressured && c.cfg.Engine != nil {
		for _, r := range c.cfg.Engine.Status(now).Rules {
			if r.State == slo.StateBreach.String() || r.BurnFast >= 1 {
				pressured = true
				break
			}
		}
	}
	// Calm requires clearing the threshold with margin; an empty
	// window (no recent traffic) is calm too, or an idle server could
	// never relax.
	calm := noData || !rule.Violates(v, c.cfg.RelaxMargin)
	if pressured {
		calm = false
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastValue, c.lastHasData = v, !noData
	lvl := int(c.level.Load())
	switch {
	case pressured:
		c.calm = 0
		c.hot++
		if c.hot >= c.cfg.EscalateTicks && lvl < MaxLevel {
			c.set(lvl+1, now, v)
			c.hot = 0
		}
	case calm:
		c.hot = 0
		c.calm++
		if c.calm >= c.cfg.RelaxTicks && lvl > LevelNone {
			c.set(lvl-1, now, v)
			c.calm = 0
		}
	default:
		// Dead band between margin and threshold: hold the level and
		// restart both streak counters.
		c.hot, c.calm = 0, 0
	}
}

// set changes the level. Called under c.mu.
func (c *Controller) set(lvl int, now time.Time, v float64) {
	prev := int(c.level.Load())
	c.level.Store(int32(lvl))
	c.since = now
	if lvl > prev {
		c.escalations++
	}
	level := slog.LevelInfo
	if lvl > prev {
		level = slog.LevelWarn
	}
	c.cfg.Logger.Log(context.Background(), level, "brownout level change",
		"from", prev, "to", lvl, "signal", c.cfg.Rule.Expr,
		"value", v, "threshold", c.cfg.Rule.Threshold)
}

// Status is the controller's /statsz shape.
type Status struct {
	Level    int    `json:"level"`
	MaxLevel int    `json:"max_level"`
	Rule     string `json:"rule"`
	// Value is the pressure signal's current windowed value; absent
	// when the window holds no data.
	Value       *float64   `json:"value,omitempty"`
	Threshold   float64    `json:"threshold"`
	Since       *time.Time `json:"since,omitempty"`
	Escalations uint64     `json:"escalations"`
}

// Status snapshots the controller for /statsz.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Level:       int(c.level.Load()),
		MaxLevel:    MaxLevel,
		Rule:        c.cfg.Rule.String(),
		Threshold:   c.cfg.Rule.Threshold,
		Escalations: c.escalations,
	}
	if c.lastHasData {
		v := c.lastValue
		st.Value = &v
	}
	if !c.since.IsZero() {
		t := c.since
		st.Since = &t
	}
	return st
}
