// Package mwu implements the classic multiplicative-weights-update
// baseline the paper relates its dynamics to (Arora–Hazan–Kale 2012):
// Hedge, the standard exponential-weights algorithm with a free
// learning rate ε, including the horizon-optimal tuning
// ε = sqrt(ln m / T) achieving O(sqrt(ln m / T)) average regret — the
// rate the paper's conclusion contrasts against the socially
// constrained β.
//
// Unlike the paper's dynamics, Hedge explicitly stores a weight vector —
// precisely the memory the social-learning implementation avoids.
package mwu

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadConfig reports invalid MWU parameters.
var ErrBadConfig = errors.New("mwu: invalid config")

// Hedge is the exponential-weights algorithm over m options with
// learning rate eps: after observing reward vector r^t ∈ [0,1]^m the
// weights update as w_j ← w_j · (1+ε)^{r_j} (the gains form of AHK).
type Hedge struct {
	eps  float64
	logW []float64
	t    int

	cumReward float64
}

// NewHedge creates a Hedge instance with m options and rate eps ∈ (0, 1].
func NewHedge(m int, eps float64) (*Hedge, error) {
	if m <= 0 {
		return nil, fmt.Errorf("%w: m=%d", ErrBadConfig, m)
	}
	if math.IsNaN(eps) || eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("%w: eps=%v", ErrBadConfig, eps)
	}
	return &Hedge{
		eps:  eps,
		logW: make([]float64, m),
	}, nil
}

// OptimalEps returns the horizon-tuned rate min(1, sqrt(ln m / T)).
func OptimalEps(m, horizon int) (float64, error) {
	if m <= 0 || horizon <= 0 {
		return 0, fmt.Errorf("%w: optimal eps m=%d T=%d", ErrBadConfig, m, horizon)
	}
	if m == 1 {
		return 1, nil
	}
	eps := math.Sqrt(math.Log(float64(m)) / float64(horizon))
	if eps > 1 {
		eps = 1
	}
	if eps <= 0 {
		eps = 1e-9
	}
	return eps, nil
}

// NewHedgeOptimal creates a Hedge tuned for the given horizon.
func NewHedgeOptimal(m, horizon int) (*Hedge, error) {
	eps, err := OptimalEps(m, horizon)
	if err != nil {
		return nil, err
	}
	return NewHedge(m, eps)
}

// Options returns m.
func (h *Hedge) Options() int { return len(h.logW) }

// T returns the number of observed steps.
func (h *Hedge) T() int { return h.t }

// Distribution returns the current normalized weight vector, computed
// stably in log space.
func (h *Hedge) Distribution() []float64 {
	out := make([]float64, len(h.logW))
	maxLog := h.logW[0]
	for _, lw := range h.logW[1:] {
		if lw > maxLog {
			maxLog = lw
		}
	}
	sum := 0.0
	for j, lw := range h.logW {
		out[j] = math.Exp(lw - maxLog)
		sum += out[j]
	}
	for j := range out {
		out[j] /= sum
	}
	return out
}

// Observe feeds the full reward vector of one step (full-information
// setting, matching the group's view in the paper) and returns the
// expected reward earned by the pre-update distribution.
func (h *Hedge) Observe(rewards []float64) (float64, error) {
	if len(rewards) != len(h.logW) {
		return 0, fmt.Errorf("%w: rewards length %d, want %d", ErrBadConfig, len(rewards), len(h.logW))
	}
	p := h.Distribution()
	gain := 0.0
	for j, r := range rewards {
		if math.IsNaN(r) || r < 0 || r > 1 {
			return 0, fmt.Errorf("%w: reward[%d]=%v", ErrBadConfig, j, r)
		}
		gain += p[j] * r
	}
	lg1e := math.Log1p(h.eps)
	for j, r := range rewards {
		h.logW[j] += r * lg1e
	}
	h.t++
	h.cumReward += gain
	return gain, nil
}

// AverageRegretAgainst returns bestAvg − (cumulative reward)/T for a
// benchmark per-step reward bestAvg (e.g. η_1).
func (h *Hedge) AverageRegretAgainst(bestAvg float64) (float64, error) {
	if h.t == 0 {
		return 0, fmt.Errorf("%w: no steps observed", ErrBadConfig)
	}
	return bestAvg - h.cumReward/float64(h.t), nil
}
