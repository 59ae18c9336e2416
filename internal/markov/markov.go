// Package markov provides an *exact* finite-state analysis of the
// two-option social-learning dynamics on small populations, complementing
// the Monte-Carlo engines. It quantifies precisely the phenomenon the
// paper's µ > 0 assumption exists to prevent: with µ = 0 the chain has
// absorbing states at "everyone on option 1" and "everyone on option 2",
// and the probability of fixating on the *bad* option is a constant
// bounded away from zero.
//
// The model is the lazy two-option dynamics (each individual always
// holds an option; sitting out means keeping it — the same semantics as
// internal/netpop on the complete graph). The chain state is
// k ∈ {0..N}, the number of individuals holding option 1. Conditioned
// on the step's reward realization (R₁, R₂):
//
//	each 1-holder switches to 2 w.p.  c₂·f(R₂),
//	each 2-holder switches to 1 w.p.  c₁·f(R₁),
//
// where c_j = µ/2 + (1−µ)·(count_j)/N is the probability of considering
// option j and f(R) = β·R + α·(1−R) is the adoption probability. The
// next state is k − Bin(k, c₂f(R₂)) + Bin(N−k, c₁f(R₁)); its exact
// distribution is the convolution of two binomials, averaged over the
// four reward outcomes.
//
// Fixation probabilities and expected absorption times come from solving
// the standard first-step linear systems with internal/linalg; the
// stationary distribution (µ > 0) from power iteration.
package markov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

var (
	// ErrBadConfig reports invalid chain parameters.
	ErrBadConfig = errors.New("markov: invalid config")
	// ErrNotAbsorbing reports absorption queries on a chain with µ > 0
	// (no absorbing states).
	ErrNotAbsorbing = errors.New("markov: chain has no absorbing states (mu > 0)")
)

// Config parameterizes the exact two-option chain.
type Config struct {
	// N is the population size (kept small: the transition matrix is
	// (N+1)², and building it costs O(N³)).
	N int
	// Eta1 and Eta2 are the option qualities.
	Eta1, Eta2 float64
	// Mu is the exploration probability.
	Mu float64
	// Alpha and Beta are the adoption probabilities on bad and good
	// signals respectively (α ≤ β).
	Alpha, Beta float64
}

func (c Config) validate() error {
	if c.N < 1 || c.N > 400 {
		return fmt.Errorf("%w: N=%d (supported range 1..400)", ErrBadConfig, c.N)
	}
	for _, p := range []float64{c.Eta1, c.Eta2, c.Mu, c.Alpha, c.Beta} {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("%w: parameter %v out of [0,1]", ErrBadConfig, p)
		}
	}
	if c.Alpha > c.Beta {
		return fmt.Errorf("%w: alpha=%v > beta=%v", ErrBadConfig, c.Alpha, c.Beta)
	}
	return nil
}

// Chain is the exact two-option Markov chain. Create with New.
type Chain struct {
	cfg Config
	tm  *linalg.Matrix // (N+1)x(N+1) row-stochastic transition matrix
}

// New builds the exact transition matrix for the configuration.
func New(cfg Config) (*Chain, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.N
	tm, err := linalg.NewMatrix(n+1, n+1)
	if err != nil {
		return nil, err
	}

	// Reward outcomes and their probabilities.
	type outcome struct {
		p      float64
		f1, f2 float64 // adoption probabilities for options 1 and 2
	}
	f := func(r int) float64 {
		if r == 1 {
			return cfg.Beta
		}
		return cfg.Alpha
	}
	outcomes := make([]outcome, 0, 4)
	for r1 := 0; r1 <= 1; r1++ {
		for r2 := 0; r2 <= 1; r2++ {
			p1 := cfg.Eta1
			if r1 == 0 {
				p1 = 1 - cfg.Eta1
			}
			p2 := cfg.Eta2
			if r2 == 0 {
				p2 = 1 - cfg.Eta2
			}
			if p1*p2 == 0 {
				continue
			}
			outcomes = append(outcomes, outcome{p: p1 * p2, f1: f(r1), f2: f(r2)})
		}
	}

	pmfLoss := make([]float64, n+1) // Bin(k, pSwitchOut)
	pmfGain := make([]float64, n+1) // Bin(N-k, pSwitchIn)
	for k := 0; k <= n; k++ {
		c1 := cfg.Mu/2 + (1-cfg.Mu)*float64(k)/float64(n)
		c2 := cfg.Mu/2 + (1-cfg.Mu)*float64(n-k)/float64(n)
		for _, o := range outcomes {
			pOut := c2 * o.f2 // 1-holder considers 2 and adopts
			pIn := c1 * o.f1  // 2-holder considers 1 and adopts
			binomialPMF(pmfLoss[:k+1], k, pOut)
			binomialPMF(pmfGain[:n-k+1], n-k, pIn)
			// k' = k - loss + gain.
			for loss := 0; loss <= k; loss++ {
				pl := pmfLoss[loss]
				if pl == 0 {
					continue
				}
				base := k - loss
				w := o.p * pl
				for gain := 0; gain <= n-k; gain++ {
					pg := pmfGain[gain]
					if pg == 0 {
						continue
					}
					tm.Add(k, base+gain, w*pg)
				}
			}
		}
	}
	return &Chain{cfg: cfg, tm: tm}, nil
}

// binomialPMF fills dst (length n+1) with the Binomial(n, p) PMF,
// computed by the stable multiplicative recurrence.
func binomialPMF(dst []float64, n int, p float64) {
	if p <= 0 {
		for i := range dst {
			dst[i] = 0
		}
		dst[0] = 1
		return
	}
	if p >= 1 {
		for i := range dst {
			dst[i] = 0
		}
		dst[n] = 1
		return
	}
	// Work in logs from the mode outward would be fancier; the simple
	// recurrence P(k+1) = P(k)·(n−k)/(k+1)·p/(1−p) is stable enough for
	// the N ≤ 400 this package supports, anchored at log P(0).
	logQ := math.Log1p(-p)
	logit := math.Log(p) - logQ
	logPk := float64(n) * logQ
	for k := 0; k <= n; k++ {
		dst[k] = math.Exp(logPk)
		if k < n {
			logPk += math.Log(float64(n-k)) - math.Log(float64(k+1)) + logit
		}
	}
}

// N returns the population size.
func (c *Chain) N() int { return c.cfg.N }

// IsAbsorbing reports whether states 0 and N are absorbing (µ = 0 and
// α or the reward structure cannot re-seed an extinct option).
func (c *Chain) IsAbsorbing() bool {
	return c.tm.At(0, 0) > 1-1e-12 && c.tm.At(c.cfg.N, c.cfg.N) > 1-1e-12
}

// FixationProbabilities returns, for every start state k, the
// probability of absorbing at k = N (all on option 1). It requires an
// absorbing chain (µ = 0).
func (c *Chain) FixationProbabilities() ([]float64, error) {
	if !c.IsAbsorbing() {
		return nil, ErrNotAbsorbing
	}
	n := c.cfg.N
	if n == 1 {
		return []float64{0, 1}, nil
	}
	// Interior states 1..N-1: h(k) = Σ_j T[k][j] h(j), h(0)=0, h(N)=1.
	interior := n - 1
	a, err := linalg.NewMatrix(interior, interior)
	if err != nil {
		return nil, err
	}
	b := make([]float64, interior)
	for k := 1; k <= n-1; k++ {
		row := k - 1
		for j := 1; j <= n-1; j++ {
			v := -c.tm.At(k, j)
			if j == k {
				v++
			}
			a.Set(row, j-1, v)
		}
		b[row] = c.tm.At(k, n)
	}
	h, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("markov: fixation solve: %w", err)
	}
	out := make([]float64, n+1)
	copy(out[1:], h)
	out[n] = 1
	return out, nil
}

// ExpectedAbsorptionTimes returns, for every start state, the expected
// number of steps until absorption (0 at the absorbing states).
func (c *Chain) ExpectedAbsorptionTimes() ([]float64, error) {
	if !c.IsAbsorbing() {
		return nil, ErrNotAbsorbing
	}
	n := c.cfg.N
	if n == 1 {
		return []float64{0, 0}, nil
	}
	interior := n - 1
	a, err := linalg.NewMatrix(interior, interior)
	if err != nil {
		return nil, err
	}
	b := make([]float64, interior)
	for k := 1; k <= n-1; k++ {
		row := k - 1
		for j := 1; j <= n-1; j++ {
			v := -c.tm.At(k, j)
			if j == k {
				v++
			}
			a.Set(row, j-1, v)
		}
		b[row] = 1
	}
	t, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("markov: absorption-time solve: %w", err)
	}
	out := make([]float64, n+1)
	copy(out[1:], t)
	return out, nil
}

// StationaryDistribution estimates the stationary distribution by power
// iteration from the uniform distribution, stopping when the L1 change
// drops below tol or after maxIters steps. For µ > 0 the chain is
// irreducible and aperiodic, so the iteration converges.
func (c *Chain) StationaryDistribution(maxIters int, tol float64) ([]float64, error) {
	if maxIters <= 0 || math.IsNaN(tol) || tol <= 0 {
		return nil, fmt.Errorf("%w: maxIters=%d tol=%v", ErrBadConfig, maxIters, tol)
	}
	n := c.cfg.N
	pi := make([]float64, n+1)
	for i := range pi {
		pi[i] = 1 / float64(n+1)
	}
	for iter := 0; iter < maxIters; iter++ {
		next, err := c.tm.VecMul(pi)
		if err != nil {
			return nil, err
		}
		change := 0.0
		for i := range next {
			change += math.Abs(next[i] - pi[i])
		}
		pi = next
		if change < tol {
			break
		}
	}
	return pi, nil
}

// WrongFixationProbability returns the probability that the µ = 0 chain,
// started from the 50/50 split (or ⌈N/2⌉), fixates on the *worse*
// option. This is the quantity the paper's µ > 0 assumption suppresses.
func (c *Chain) WrongFixationProbability() (float64, error) {
	h, err := c.FixationProbabilities()
	if err != nil {
		return 0, err
	}
	start := (c.cfg.N + 1) / 2
	pBest := h[start] // absorb at all-on-option-1
	if c.cfg.Eta1 >= c.cfg.Eta2 {
		return 1 - pBest, nil
	}
	return pBest, nil
}
