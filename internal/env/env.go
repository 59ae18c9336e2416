// Package env defines the reward environments the learning dynamics run
// against.
//
// The paper's base model (Section 2.1) draws, at every time step t and
// for every option j, an independent quality signal R^t_j ~
// Bernoulli(η_j). This package implements that model plus the variants
// the experiments run:
//
//   - ExactlyOneGood: the correlated two-option structure of the
//     Ellison–Fudenberg example (footnote 3: exactly one of R^t_1, R^t_2
//     is 1 each step, independence across time suffices).
//   - Drifting / Switching: time-varying qualities, the extension named
//     in the conclusion.
//
// Scripted (a fixed reward sequence, the adversarial setting), Faulty
// (an injected failure) and Recorder (a replayable record of another
// environment's rewards) are the seams that tests substitute.
//
// An Environment produces one vector of binary rewards per time step;
// the dynamics only ever observe these binary signals.
package env

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

var (
	// ErrBadQualities reports an invalid quality vector.
	ErrBadQualities = errors.New("env: invalid qualities")
	// ErrBadParam reports an out-of-domain environment parameter.
	ErrBadParam = errors.New("env: invalid parameter")
)

// Environment generates the per-step binary quality signals.
type Environment interface {
	// Options returns the number of options m.
	Options() int
	// Qualities returns the current success probabilities η_j. For
	// time-varying environments this reflects the most recent step.
	Qualities() []float64
	// Step draws the next reward vector R^{t+1} into dst, which must
	// have length Options(). The same vector is observed by every
	// individual that considers option j at this step, exactly as in
	// the paper (the signal is a property of the option, not of the
	// observer).
	Step(r *rng.RNG, dst []float64) error
}

// validateQualities checks η ∈ [0,1]^m, m >= 1.
func validateQualities(qualities []float64) error {
	if len(qualities) == 0 {
		return fmt.Errorf("%w: empty", ErrBadQualities)
	}
	for j, q := range qualities {
		if math.IsNaN(q) || q < 0 || q > 1 {
			return fmt.Errorf("%w: eta[%d]=%v", ErrBadQualities, j, q)
		}
	}
	return nil
}

// IIDBernoulli is the paper's base environment: independent
// Bernoulli(η_j) signals each step.
type IIDBernoulli struct {
	qualities []float64
}

var _ Environment = (*IIDBernoulli)(nil)

// NewIIDBernoulli validates the qualities and returns the environment.
func NewIIDBernoulli(qualities []float64) (*IIDBernoulli, error) {
	if err := validateQualities(qualities); err != nil {
		return nil, err
	}
	q := make([]float64, len(qualities))
	copy(q, qualities)
	return &IIDBernoulli{qualities: q}, nil
}

// Options returns m.
func (e *IIDBernoulli) Options() int { return len(e.qualities) }

// Qualities returns a copy of η.
func (e *IIDBernoulli) Qualities() []float64 {
	out := make([]float64, len(e.qualities))
	copy(out, e.qualities)
	return out
}

// Step draws independent Bernoulli signals. The generator state is
// hoisted for the loop (rng.Local) and the Bernoulli clamps are kept
// exactly (q ≤ 0 and q ≥ 1 consume no draw), so the draw sequence
// matches per-option r.Bernoulli(q) calls bit for bit.
func (e *IIDBernoulli) Step(r *rng.RNG, dst []float64) error {
	if len(dst) != len(e.qualities) {
		return fmt.Errorf("%w: dst length %d, want %d", ErrBadParam, len(dst), len(e.qualities))
	}
	x := r.Hoist()
	for j, q := range e.qualities {
		v := 0.0
		if q > 0 && (q >= 1 || x.Float64() < q) {
			v = 1
		}
		dst[j] = v
	}
	x.StoreTo(r)
	return nil
}

// ExactlyOneGood is the correlated two-option environment from the
// Ellison–Fudenberg reduction: each step exactly one option is good;
// option 1 is good with probability P (so η_1 = P, η_2 = 1−P).
type ExactlyOneGood struct {
	p float64
}

var _ Environment = (*ExactlyOneGood)(nil)

// NewExactlyOneGood validates p and returns the environment.
func NewExactlyOneGood(p float64) (*ExactlyOneGood, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("%w: p=%v", ErrBadParam, p)
	}
	return &ExactlyOneGood{p: p}, nil
}

// Options returns 2.
func (e *ExactlyOneGood) Options() int { return 2 }

// Qualities returns {p, 1−p}.
func (e *ExactlyOneGood) Qualities() []float64 { return []float64{e.p, 1 - e.p} }

// Step sets exactly one coordinate to 1.
func (e *ExactlyOneGood) Step(r *rng.RNG, dst []float64) error {
	if len(dst) != 2 {
		return fmt.Errorf("%w: dst length %d, want 2", ErrBadParam, len(dst))
	}
	if r.Bernoulli(e.p) {
		dst[0], dst[1] = 1, 0
	} else {
		dst[0], dst[1] = 0, 1
	}
	return nil
}

// Drifting wraps a base quality vector whose entries perform a bounded
// random walk with per-step standard deviation Sigma, reflected into
// [Floor, Ceil]. It models the conclusion's "qualities allowed to
// change" extension.
type Drifting struct {
	qualities []float64
	sigma     float64
	floor     float64
	ceil      float64
}

var _ Environment = (*Drifting)(nil)

// NewDrifting validates parameters and returns the environment.
func NewDrifting(initial []float64, sigma, floor, ceil float64) (*Drifting, error) {
	if err := validateQualities(initial); err != nil {
		return nil, err
	}
	if math.IsNaN(sigma) || sigma < 0 {
		return nil, fmt.Errorf("%w: sigma=%v", ErrBadParam, sigma)
	}
	if math.IsNaN(floor) || math.IsNaN(ceil) || floor < 0 || ceil > 1 || floor >= ceil {
		return nil, fmt.Errorf("%w: bounds [%v,%v]", ErrBadParam, floor, ceil)
	}
	q := make([]float64, len(initial))
	copy(q, initial)
	return &Drifting{qualities: q, sigma: sigma, floor: floor, ceil: ceil}, nil
}

// Options returns m.
func (e *Drifting) Options() int { return len(e.qualities) }

// Qualities returns a copy of the current η.
func (e *Drifting) Qualities() []float64 {
	out := make([]float64, len(e.qualities))
	copy(out, e.qualities)
	return out
}

// Step advances the random walk, then draws Bernoulli signals.
func (e *Drifting) Step(r *rng.RNG, dst []float64) error {
	if len(dst) != len(e.qualities) {
		return fmt.Errorf("%w: dst length %d, want %d", ErrBadParam, len(dst), len(e.qualities))
	}
	for j := range e.qualities {
		q := e.qualities[j] + e.sigma*r.NormFloat64()
		e.qualities[j] = reflect(q, e.floor, e.ceil)
		if r.Bernoulli(e.qualities[j]) {
			dst[j] = 1
		} else {
			dst[j] = 0
		}
	}
	return nil
}

// reflect folds x into [lo, hi] by reflection at the boundaries.
func reflect(x, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	// Fold x into the fundamental domain of the reflection group: the
	// reflected walk has period 2*(hi-lo).
	width := hi - lo
	y := math.Mod(x-lo, 2*width)
	if y < 0 {
		y += 2 * width
	}
	if y > width {
		y = 2*width - y
	}
	return lo + y
}

// Switching permutes which option is best every Period steps: the
// quality vector rotates by one position. It exercises tracking
// behaviour under abrupt change.
type Switching struct {
	qualities []float64
	period    int
	step      int
}

var _ Environment = (*Switching)(nil)

// NewSwitching validates parameters and returns the environment.
func NewSwitching(qualities []float64, period int) (*Switching, error) {
	if err := validateQualities(qualities); err != nil {
		return nil, err
	}
	if period <= 0 {
		return nil, fmt.Errorf("%w: period=%d", ErrBadParam, period)
	}
	q := make([]float64, len(qualities))
	copy(q, qualities)
	return &Switching{qualities: q, period: period}, nil
}

// Options returns m.
func (e *Switching) Options() int { return len(e.qualities) }

// Qualities returns a copy of the current η.
func (e *Switching) Qualities() []float64 {
	out := make([]float64, len(e.qualities))
	copy(out, e.qualities)
	return out
}

// Step rotates the qualities at period boundaries then draws signals.
func (e *Switching) Step(r *rng.RNG, dst []float64) error {
	if len(dst) != len(e.qualities) {
		return fmt.Errorf("%w: dst length %d, want %d", ErrBadParam, len(dst), len(e.qualities))
	}
	if e.step > 0 && e.step%e.period == 0 && len(e.qualities) > 1 {
		last := e.qualities[len(e.qualities)-1]
		copy(e.qualities[1:], e.qualities[:len(e.qualities)-1])
		e.qualities[0] = last
	}
	e.step++
	for j, q := range e.qualities {
		if r.Bernoulli(q) {
			dst[j] = 1
		} else {
			dst[j] = 0
		}
	}
	return nil
}

// Scripted replays a fixed reward matrix (adversarial setting). After the
// script is exhausted it repeats from the beginning.
type Scripted struct {
	rewards [][]float64
	step    int
}

var _ Environment = (*Scripted)(nil)

// NewScripted validates the reward matrix (non-empty, rectangular,
// entries in {0,1}) and returns the environment.
func NewScripted(rewards [][]float64) (*Scripted, error) {
	if len(rewards) == 0 || len(rewards[0]) == 0 {
		return nil, fmt.Errorf("%w: empty script", ErrBadParam)
	}
	m := len(rewards[0])
	cp := make([][]float64, len(rewards))
	for t, row := range rewards {
		if len(row) != m {
			return nil, fmt.Errorf("%w: ragged script row %d", ErrBadParam, t)
		}
		cp[t] = make([]float64, m)
		for j, v := range row {
			if v != 0 && v != 1 {
				return nil, fmt.Errorf("%w: script[%d][%d]=%v not binary", ErrBadParam, t, j, v)
			}
			cp[t][j] = v
		}
	}
	return &Scripted{rewards: cp}, nil
}

// Options returns m.
func (e *Scripted) Options() int { return len(e.rewards[0]) }

// Qualities returns the per-option empirical mean of the script.
func (e *Scripted) Qualities() []float64 {
	m := e.Options()
	out := make([]float64, m)
	for _, row := range e.rewards {
		for j, v := range row {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(len(e.rewards))
	}
	return out
}

// Step copies the next scripted row.
func (e *Scripted) Step(_ *rng.RNG, dst []float64) error {
	if len(dst) != e.Options() {
		return fmt.Errorf("%w: dst length %d, want %d", ErrBadParam, len(dst), e.Options())
	}
	copy(dst, e.rewards[e.step%len(e.rewards)])
	e.step++
	return nil
}

// Recorder wraps an Environment and stores every reward vector it
// emits, so a second process can replay the exact same realization (the
// coupling construction of Lemma 4.5).
type Recorder struct {
	inner   Environment
	history [][]float64
}

var _ Environment = (*Recorder)(nil)

// NewRecorder wraps inner.
func NewRecorder(inner Environment) (*Recorder, error) {
	if inner == nil {
		return nil, fmt.Errorf("%w: nil inner environment", ErrBadParam)
	}
	return &Recorder{inner: inner}, nil
}

// Options returns the inner environment's option count.
func (e *Recorder) Options() int { return e.inner.Options() }

// Qualities returns the inner environment's qualities.
func (e *Recorder) Qualities() []float64 { return e.inner.Qualities() }

// Step delegates to the inner environment and records the result.
func (e *Recorder) Step(r *rng.RNG, dst []float64) error {
	if err := e.inner.Step(r, dst); err != nil {
		return err
	}
	row := make([]float64, len(dst))
	copy(row, dst)
	e.history = append(e.history, row)
	return nil
}

// History returns the recorded reward matrix (aliased, not copied; the
// recorder never mutates stored rows).
func (e *Recorder) History() [][]float64 { return e.history }
