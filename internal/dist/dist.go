// Package dist supplies the distribution samplers the dynamics are
// built from: continuous reward/shock distributions (normal, logistic,
// beta) behind the Sampler interface, and the discrete primitives
// driving the aggregate engine — an exact binomial sampler that
// switches regime by (n, p), a conditional-binomial multinomial, and a
// Walker alias table for stage-one option sampling.
package dist

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// ErrBadParam reports an invalid distribution parameter.
var ErrBadParam = errors.New("dist: invalid parameter")

// Sampler draws one float64 variate per call.
type Sampler interface {
	Sample(r *rng.RNG) float64
}

// Normal is the N(mean, stddev²) distribution.
type Normal struct {
	mean, stddev float64
}

// NewNormal validates and returns a normal sampler (stddev > 0).
func NewNormal(mean, stddev float64) (*Normal, error) {
	if math.IsNaN(mean) || math.IsInf(mean, 0) || !(stddev > 0) || math.IsInf(stddev, 0) {
		return nil, fmt.Errorf("%w: normal(mean=%v, stddev=%v)", ErrBadParam, mean, stddev)
	}
	return &Normal{mean: mean, stddev: stddev}, nil
}

// Sample implements Sampler.
func (n *Normal) Sample(r *rng.RNG) float64 {
	return n.mean + n.stddev*r.NormFloat64()
}

// Mean returns the distribution mean.
func (n *Normal) Mean() float64 { return n.mean }

// StdDev returns the distribution standard deviation.
func (n *Normal) StdDev() float64 { return n.stddev }

// Logistic is the logistic distribution with location loc and scale s
// (CDF 1/(1+exp(−(x−loc)/s))), the natural shock law for logit-style
// adoption rules.
type Logistic struct {
	loc, scale float64
}

// NewLogistic validates and returns a logistic sampler (scale > 0).
func NewLogistic(loc, scale float64) (*Logistic, error) {
	if math.IsNaN(loc) || math.IsInf(loc, 0) || !(scale > 0) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("%w: logistic(loc=%v, scale=%v)", ErrBadParam, loc, scale)
	}
	return &Logistic{loc: loc, scale: scale}, nil
}

// Sample implements Sampler by inverse-CDF.
func (l *Logistic) Sample(r *rng.RNG) float64 {
	u := r.Float64()
	for u == 0 { // avoid −Inf from log(0)
		u = r.Float64()
	}
	return l.loc + l.scale*math.Log(u/(1-u))
}

// Beta is the Beta(A, B) distribution (A, B > 0), used by Thompson
// sampling. The zero value is invalid; Sample panics on bad shapes the
// same way the stdlib panics on bad rand parameters.
type Beta struct {
	A, B float64
}

// Sample implements Sampler via two gamma draws.
func (b Beta) Sample(r *rng.RNG) float64 {
	if !(b.A > 0) || !(b.B > 0) {
		panic(fmt.Sprintf("dist: Beta{%v, %v} with non-positive shape", b.A, b.B))
	}
	x := gamma(r, b.A)
	y := gamma(r, b.B)
	if x+y == 0 {
		// Both underflowed; fall back on the mean.
		return b.A / (b.A + b.B)
	}
	return x / (x + y)
}

// gamma draws Gamma(shape, 1) by Marsaglia–Tsang, boosted for
// shape < 1 via Gamma(a) = Gamma(a+1)·U^{1/a}.
func gamma(r *rng.RNG, shape float64) float64 {
	if shape < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return gamma(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
