// Package slo turns retained metric history (internal/obs/tsdb) into
// judged signals: declarative rules — "queue_wait p99 < 250ms over
// 1m" — evaluated every collection tick, with ok/warn/breach state,
// breach counts, and multi-window burn rates, exported back into the
// same registry as reprod_slo_status{rule} and
// reprod_slo_breaches_total{rule} and logged on state transitions.
// It also renders the whole picture as a dependency-free HTML
// dashboard (see dash.go).
package slo

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// ExprKind is what a rule evaluates against its metric's window.
type ExprKind int

// The expression kinds the rule DSL admits.
const (
	// ExprQuantile evaluates an interpolated histogram quantile of the
	// observations inside the window (p50/p90/p99/...).
	ExprQuantile ExprKind = iota
	// ExprRate evaluates a counter's per-second increase over the
	// window (rate(...)).
	ExprRate
	// ExprValue evaluates a gauge's current value (value(...)).
	ExprValue
)

// DefaultBudget is the violating-tick budget burn rates are stated
// against when a rule does not name one: 1% of evaluation ticks may
// violate before the budget is spent (burn rate 1 = spending exactly
// the budget).
const DefaultBudget = 0.01

// Rule is one declarative SLO statement, parsed from the -slo-rule
// DSL by ParseRule or constructed directly.
type Rule struct {
	// Name labels the rule everywhere it surfaces: the slo_status
	// metric child, /v1/slo, the dashboard, transition logs.
	Name string
	// Expr is the original expression text, kept for display.
	Expr string

	Kind ExprKind
	// Q is the quantile for ExprQuantile rules (0.99 for p99).
	Q   float64
	Sel tsdb.Selector

	// Less states the objective's direction: true means the value must
	// stay below Threshold ("<"), false above (">").
	Less      bool
	Threshold float64
	// Window is the trailing evaluation window (also the fast burn
	// window; the slow burn window is slowBurnFactor times it).
	Window time.Duration
	// Budget is the violating-tick fraction the burn rates divide by.
	Budget float64
}

// String renders the rule back in DSL form.
func (r Rule) String() string {
	op := ">"
	if r.Less {
		op = "<"
	}
	return fmt.Sprintf("%s: %s %s %s over %s",
		r.Name, r.Expr, op, strconv.FormatFloat(r.Threshold, 'g', -1, 64), r.Window)
}

// Eval reads the rule's windowed value from ring: the quantile, rate,
// or gauge value its kind names. ok is false when the window holds no
// data for the selector.
func (r Rule) Eval(ring *tsdb.Ring) (v float64, ok bool) {
	switch r.Kind {
	case ExprQuantile:
		return ring.Quantile(r.Sel, r.Q, r.Window)
	case ExprRate:
		return ring.Rate(r.Sel, r.Window)
	default:
		return ring.Gauge(r.Sel)
	}
}

// Violates reports whether v breaks the objective with the threshold
// scaled by margin (1 for the objective itself; the brownout
// controller's calm test uses a margin below 1).
func (r Rule) Violates(v, margin float64) bool {
	thr := r.Threshold * margin
	if r.Less {
		return v >= thr
	}
	return v <= thr
}

// Check returns an error when the rule can never read data from the
// registry captured in snap: its metric family is missing, a selector
// label is not one of the family's label names, or a quantile rule
// names a family that is not a histogram. The ring reads each of those
// as no data, which the engine and the brownout controller count as
// healthy, so such a rule would stay silent forever.
func (r Rule) Check(snap *obs.Snapshot) error {
	f := snap.Family(r.Sel.Metric)
	if f == nil {
		return fmt.Errorf("slo: rule %q: no metric family %q", r.Name, r.Sel.Metric)
	}
	for _, k := range slices.Sorted(maps.Keys(r.Sel.Labels)) {
		if !slices.Contains(f.LabelNames, k) {
			return fmt.Errorf("slo: rule %q: %s has no label %q (labels %q)", r.Name, f.Name, k, f.LabelNames)
		}
	}
	if r.Kind == ExprQuantile && f.Kind != obs.KindHistogram {
		return fmt.Errorf("slo: rule %q: quantile of %s, a %s, not a histogram", r.Name, f.Name, f.Kind)
	}
	return nil
}

// ParseRule parses one rule from the -slo-rule DSL:
//
//	name: fn(metric{label=value,...}) OP threshold over window [budget N%]
//
// where fn is pNN (p50, p90, p99, p999, ... — an interpolated
// windowed quantile of a histogram), rate (per-second counter
// increase over the window), or value (current gauge value); OP is <
// or >; threshold is a duration ("250ms" → seconds) or a number; and
// window is a duration. The optional budget names the violating-tick
// fraction burn rates are stated against (default 1%). Examples:
//
//	queue_wait_p99: p99(reprod_sched_queue_wait_seconds) < 250ms over 1m
//	shed_rate: rate(reprod_sched_overload_rejections_total) < 1 over 1m budget 5%
//	queue_depth: value(reprod_sched_queue_depth{class=batch}) < 64 over 30s
func ParseRule(s string) (Rule, error) {
	var r Rule
	name, rest, ok := strings.Cut(s, ":")
	if !ok {
		return r, fmt.Errorf("slo: rule %q: missing \"name:\" prefix", s)
	}
	r.Name = strings.TrimSpace(name)
	if r.Name == "" || strings.ContainsAny(r.Name, " \t{}\"") {
		return r, fmt.Errorf("slo: rule %q: bad rule name %q", s, r.Name)
	}

	fields := strings.Fields(rest)
	// Re-join: the expression may not contain spaces, so fields are
	// expr, op, threshold, "over", window[, "budget", pct].
	if len(fields) != 5 && len(fields) != 7 {
		return r, fmt.Errorf("slo: rule %q: want \"name: expr < threshold over window [budget N%%]\"", s)
	}
	if err := r.parseExpr(fields[0]); err != nil {
		return r, fmt.Errorf("slo: rule %q: %w", s, err)
	}
	switch fields[1] {
	case "<":
		r.Less = true
	case ">":
		r.Less = false
	default:
		return r, fmt.Errorf("slo: rule %q: comparison must be < or >, got %q", s, fields[1])
	}
	thr, err := parseScalar(fields[2])
	if err != nil {
		return r, fmt.Errorf("slo: rule %q: bad threshold %q: %w", s, fields[2], err)
	}
	r.Threshold = thr
	if fields[3] != "over" {
		return r, fmt.Errorf("slo: rule %q: want \"over <window>\", got %q", s, fields[3])
	}
	r.Window, err = time.ParseDuration(fields[4])
	if err != nil || r.Window <= 0 {
		return r, fmt.Errorf("slo: rule %q: bad window %q", s, fields[4])
	}
	r.Budget = DefaultBudget
	if len(fields) == 7 {
		if fields[5] != "budget" {
			return r, fmt.Errorf("slo: rule %q: want \"budget N%%\", got %q", s, fields[5])
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[6], "%"), 64)
		if err != nil || pct <= 0 || pct > 100 {
			return r, fmt.Errorf("slo: rule %q: bad budget %q", s, fields[6])
		}
		r.Budget = pct / 100
	}
	return r, nil
}

// parseExpr parses fn(metric{labels}).
func (r *Rule) parseExpr(expr string) error {
	r.Expr = expr
	fn, rest, ok := strings.Cut(expr, "(")
	if !ok || !strings.HasSuffix(rest, ")") {
		return fmt.Errorf("expression %q is not fn(metric)", expr)
	}
	arg := strings.TrimSuffix(rest, ")")
	switch {
	case fn == "rate":
		r.Kind = ExprRate
	case fn == "value":
		r.Kind = ExprValue
	case len(fn) > 1 && fn[0] == 'p':
		digits := fn[1:]
		n, err := strconv.ParseUint(digits, 10, 32)
		if err != nil || n == 0 {
			return fmt.Errorf("bad quantile function %q (want p50, p99, p999, ...)", fn)
		}
		// Beyond two digits a trailing zero is either redundant (p990 ≡
		// p99) or someone meaning "the max" (p100, which would silently
		// parse as 0.100); both are rejected rather than guessed at.
		if len(digits) > 2 && digits[len(digits)-1] == '0' {
			return fmt.Errorf("bad quantile function %q (want p50, p99, p999, ...)", fn)
		}
		r.Kind = ExprQuantile
		r.Q = float64(n) / math10pow(len(digits))
		if r.Q >= 1 {
			return fmt.Errorf("quantile %q is not below 1", fn)
		}
	default:
		return fmt.Errorf("unknown function %q (want pNN, rate, or value)", fn)
	}

	metric, labels, hasLabels := strings.Cut(arg, "{")
	if metric == "" {
		return fmt.Errorf("expression %q names no metric", expr)
	}
	r.Sel = tsdb.Selector{Metric: metric}
	if !hasLabels {
		return nil
	}
	if !strings.HasSuffix(labels, "}") {
		return fmt.Errorf("unterminated label matcher in %q", expr)
	}
	labels = strings.TrimSuffix(labels, "}")
	r.Sel.Labels = make(map[string]string)
	for _, pair := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" {
			return fmt.Errorf("bad label matcher %q in %q", pair, expr)
		}
		r.Sel.Labels[strings.TrimSpace(k)] = strings.Trim(strings.TrimSpace(v), `"`)
	}
	return nil
}

// math10pow returns 10^n as a float (n is a digit count, tiny).
func math10pow(n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 10
	}
	return v
}

// parseScalar accepts a plain number or a Go duration (as seconds),
// so thresholds over the *_seconds histograms read naturally.
func parseScalar(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("neither a number nor a duration")
	}
	return d.Seconds(), nil
}
