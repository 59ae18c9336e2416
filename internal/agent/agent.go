// Package agent implements the adoption stage of the paper's two-stage
// dynamics: the stochastic functions f_i that map the most recent quality
// signal of a considered option to a commit / sit-out decision.
//
// The paper's Section 2.1 defines f_i(R) = 1 with probability β_i when
// R = 1 and with probability α_i when R = 0 (α_i ≤ β_i, strictly
// E[f_i(1)] > E[f_i(0)]). The analysis and every experiment here use
// one rule shared by all individuals: this package supplies that rule
// (Linear, with the symmetric α = 1−β as NewSymmetric) and the
// shock-threshold rule of the Ellison–Fudenberg instantiation, which
// reduces to a Linear rule (ShockThreshold.InducedLinear).
package agent

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/rng"
)

// ErrBadRule reports invalid adoption-rule parameters.
var ErrBadRule = errors.New("agent: invalid adoption rule")

// Rule decides whether an individual commits to the option it sampled,
// given that option's most recent binary quality signal.
type Rule interface {
	// Adopt returns true if the individual commits to the considered
	// option whose latest signal is good (signal=1) or bad (signal=0).
	Adopt(r *rng.RNG, signal float64) bool
	// Alpha returns the adoption probability on a bad signal.
	Alpha() float64
	// Beta returns the adoption probability on a good signal.
	Beta() float64
}

// Linear is the paper's rule: adopt with probability β on a good signal
// and α on a bad one.
type Linear struct {
	alpha, beta float64
}

var _ Rule = Linear{}

// NewLinear validates 0 ≤ α ≤ β ≤ 1 and returns the rule.
func NewLinear(alpha, beta float64) (Linear, error) {
	if math.IsNaN(alpha) || math.IsNaN(beta) || alpha < 0 || beta > 1 || alpha > beta {
		return Linear{}, fmt.Errorf("%w: alpha=%v beta=%v (need 0<=alpha<=beta<=1)", ErrBadRule, alpha, beta)
	}
	return Linear{alpha: alpha, beta: beta}, nil
}

// NewSymmetric returns the analysis rule α = 1−β. It requires
// β ∈ [1/2, 1] so that α ≤ β.
func NewSymmetric(beta float64) (Linear, error) {
	if math.IsNaN(beta) || beta < 0.5 || beta > 1 {
		return Linear{}, fmt.Errorf("%w: symmetric beta=%v (need 1/2<=beta<=1)", ErrBadRule, beta)
	}
	return Linear{alpha: 1 - beta, beta: beta}, nil
}

// Adopt implements Rule.
func (l Linear) Adopt(r *rng.RNG, signal float64) bool {
	if signal >= 1 {
		return r.Bernoulli(l.beta)
	}
	return r.Bernoulli(l.alpha)
}

// Alpha returns the bad-signal adoption probability.
func (l Linear) Alpha() float64 { return l.alpha }

// Beta returns the good-signal adoption probability.
func (l Linear) Beta() float64 { return l.beta }

// Delta returns the paper's learning-rate parameter δ = ln(β/(1−β)) for
// the symmetric rule; for a general rule it returns ln(β/α). δ is only
// finite when α > 0.
func (l Linear) Delta() float64 {
	if l.alpha == 0 {
		return math.Inf(1)
	}
	return math.Log(l.beta / l.alpha)
}

// AlwaysAdopt is the pure-imitation ablation (β = α = 1): the adoption
// stage carries no information, so the process degenerates to copying.
// Section 3 of the paper argues this cannot converge to the best option.
func AlwaysAdopt() Linear { return Linear{alpha: 1, beta: 1} }

// ShockThreshold is the Ellison–Fudenberg adoption rule of Section 2.1,
// example 2, expressed directly in reward space: the individual compares
// the two options' latest continuous rewards perturbed by a fresh
// symmetric shock ξ and adopts option 1 when r_1 − r_2 + ξ > 0 (and
// symmetrically for option 2). Its induced binary-rule parameters are
//
//	β = P[ξ > −g | g > 0],  α = P[ξ > g | g > 0],
//
// for the reward gap g = r_1 − r_2, which this package estimates by
// Monte Carlo in InducedLinear.
type ShockThreshold struct {
	shock dist.Sampler
}

// NewShockThreshold validates and returns the rule.
func NewShockThreshold(shock dist.Sampler) (*ShockThreshold, error) {
	if shock == nil {
		return nil, fmt.Errorf("%w: nil shock sampler", ErrBadRule)
	}
	return &ShockThreshold{shock: shock}, nil
}

// InducedLinear estimates the binary-model (α, β) induced by the shock
// rule for reward gaps drawn from gap (conditioned on sign), using
// trials Monte Carlo draws per parameter.
func (s *ShockThreshold) InducedLinear(r *rng.RNG, gap dist.Sampler, trials int) (Linear, error) {
	if gap == nil || trials <= 0 {
		return Linear{}, fmt.Errorf("%w: induced-linear gap=%v trials=%d", ErrBadRule, gap, trials)
	}
	var betaHits, betaTotal, alphaHits, alphaTotal int
	for betaTotal < trials || alphaTotal < trials {
		g := gap.Sample(r)
		if g == 0 {
			continue
		}
		if g < 0 {
			g = -g
			// Conditioning on the favourable option by symmetry.
		}
		if betaTotal < trials {
			betaTotal++
			if g+s.shock.Sample(r) > 0 {
				betaHits++
			}
		}
		if alphaTotal < trials {
			alphaTotal++
			if -g+s.shock.Sample(r) > 0 {
				alphaHits++
			}
		}
	}
	alpha := float64(alphaHits) / float64(alphaTotal)
	beta := float64(betaHits) / float64(betaTotal)
	if alpha > beta {
		// Monte-Carlo noise can invert an (α≈β) pair; clamp.
		alpha = beta
	}
	return Linear{alpha: alpha, beta: beta}, nil
}
