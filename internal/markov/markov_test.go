package markov

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/stats"
)

func baseConfig() Config {
	return Config{N: 20, Eta1: 0.8, Eta2: 0.4, Mu: 0, Alpha: 0.3, Beta: 0.7}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()

	bad := []Config{
		{N: 0, Eta1: 0.5, Eta2: 0.5, Beta: 0.5},
		{N: 10000, Eta1: 0.5, Eta2: 0.5, Beta: 0.5},
		{N: 10, Eta1: 1.5, Eta2: 0.5, Beta: 0.5},
		{N: 10, Eta1: 0.5, Eta2: 0.5, Mu: -0.1, Beta: 0.5},
		{N: 10, Eta1: 0.5, Eta2: 0.5, Alpha: 0.8, Beta: 0.5},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRowsAreStochastic(t *testing.T) {
	t.Parallel()

	for _, mu := range []float64{0, 0.1, 1} {
		cfg := baseConfig()
		cfg.Mu = mu
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e := c.RowSumError(); e > 1e-9 {
			t.Errorf("mu=%v: row-sum error %v", mu, e)
		}
	}
}

func TestAbsorbingIffMuZero(t *testing.T) {
	t.Parallel()

	c0, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !c0.IsAbsorbing() {
		t.Error("mu=0 chain not absorbing")
	}
	cfg := baseConfig()
	cfg.Mu = 0.05
	cMu, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cMu.IsAbsorbing() {
		t.Error("mu>0 chain absorbing")
	}
	if _, err := cMu.FixationProbabilities(); !errors.Is(err, ErrNotAbsorbing) {
		t.Error("fixation computed for non-absorbing chain")
	}
	if _, err := cMu.ExpectedAbsorptionTimes(); !errors.Is(err, ErrNotAbsorbing) {
		t.Error("absorption time computed for non-absorbing chain")
	}
}

func TestFixationProbabilitiesShape(t *testing.T) {
	t.Parallel()

	c, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.FixationProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 0 || h[c.N()] != 1 {
		t.Fatalf("boundary values wrong: h[0]=%v h[N]=%v", h[0], h[c.N()])
	}
	for k := 1; k < c.N(); k++ {
		if h[k] <= h[k-1] {
			t.Fatalf("fixation probability not strictly increasing at k=%d: %v <= %v", k, h[k], h[k-1])
		}
		if h[k] <= 0 || h[k] >= 1 {
			t.Fatalf("interior fixation probability out of (0,1): h[%d]=%v", k, h[k])
		}
	}
	// With eta1 > eta2 the good option should be favoured from the
	// 50/50 start.
	if h[c.N()/2] < 0.5 {
		t.Errorf("h[N/2] = %v, want > 0.5 with a quality gap", h[c.N()/2])
	}
}

func TestNeutralChainFixationIsLinear(t *testing.T) {
	t.Parallel()

	// With eta1 = eta2 and alpha = beta the chain is an exchangeable
	// (martingale) drift-free process, so h(k) = k/N — the classical
	// neutral Wright-Fisher result.
	c, err := New(Config{N: 12, Eta1: 0.5, Eta2: 0.5, Mu: 0, Alpha: 0.5, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.FixationProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 12; k++ {
		if want := float64(k) / 12; math.Abs(h[k]-want) > 1e-8 {
			t.Errorf("neutral h[%d] = %v, want %v", k, h[k], want)
		}
	}
}

func TestWrongFixationPositiveAtMuZero(t *testing.T) {
	t.Parallel()

	c, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := c.WrongFixationProbability()
	if err != nil {
		t.Fatal(err)
	}
	if wrong <= 0 || wrong >= 0.5 {
		t.Errorf("wrong-fixation probability %v, want in (0, 0.5) for a clear gap", wrong)
	}
}

// TestFixationMatchesSimulation cross-checks the linear-system solution
// against direct simulation of the same chain.
func TestFixationMatchesSimulation(t *testing.T) {
	t.Parallel()

	cfg := Config{N: 10, Eta1: 0.7, Eta2: 0.5, Mu: 0, Alpha: 0.4, Beta: 0.6}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.FixationProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	const reps = 4000
	start := 5
	hits := 0
	for rep := 0; rep < reps; rep++ {
		end, err := c.Simulate(r, start, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if end != 0 && end != cfg.N {
			t.Fatal("simulation did not absorb")
		}
		if end == cfg.N {
			hits++
		}
	}
	got := float64(hits) / reps
	se := math.Sqrt(h[start] * (1 - h[start]) / reps)
	if math.Abs(got-h[start]) > 5*se+1e-9 {
		t.Errorf("simulated fixation %v vs exact %v (se %v)", got, h[start], se)
	}
}

func TestExpectedAbsorptionTimes(t *testing.T) {
	t.Parallel()

	c, err := New(Config{N: 10, Eta1: 0.7, Eta2: 0.5, Mu: 0, Alpha: 0.4, Beta: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	times, err := c.ExpectedAbsorptionTimes()
	if err != nil {
		t.Fatal(err)
	}
	if times[0] != 0 || times[10] != 0 {
		t.Error("absorbing states should have zero expected time")
	}
	for k := 1; k < 10; k++ {
		if times[k] <= 0 {
			t.Errorf("interior time t[%d] = %v", k, times[k])
		}
	}
	// Validate one interior value by simulation.
	r := rng.New(5)
	var s stats.Summary
	for rep := 0; rep < 3000; rep++ {
		k := 5
		steps := 0
		for k != 0 && k != 10 {
			next, err := c.Simulate(r, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			k = next
			steps++
			if steps > 1000000 {
				t.Fatal("runaway simulation")
			}
		}
		s.Add(float64(steps))
	}
	if math.Abs(s.Mean()-times[5]) > 6*s.StdErr()+0.05 {
		t.Errorf("simulated absorption time %v vs exact %v (se %v)", s.Mean(), times[5], s.StdErr())
	}
}

func TestStationaryDistribution(t *testing.T) {
	t.Parallel()

	cfg := Config{N: 30, Eta1: 0.9, Eta2: 0.3, Mu: 0.05, Alpha: 0.3, Beta: 0.7}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StationaryDistribution(0, 1e-9); !errors.Is(err, ErrBadConfig) {
		t.Error("maxIters=0 accepted")
	}
	pi, err := c.StationaryDistribution(20000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.IsProbabilityVector(pi, 1e-9) {
		t.Fatalf("stationary distribution invalid: sums to %v", sum(pi))
	}
	// Invariance: pi T ~= pi.
	next, err := c.StepDistribution(pi)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if math.Abs(next[i]-pi[i]) > 1e-8 {
			t.Fatalf("stationary distribution not invariant at %d: %v vs %v", i, next[i], pi[i])
		}
	}
	// With a strong gap, most stationary mass should sit near k=N.
	massTop := 0.0
	for k := 2 * cfg.N / 3; k <= cfg.N; k++ {
		massTop += pi[k]
	}
	if massTop < 0.8 {
		t.Errorf("stationary mass in top third = %v, want > 0.8", massTop)
	}
}

func TestSimulateValidation(t *testing.T) {
	t.Parallel()

	c, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulate(nil, 0, 1); !errors.Is(err, ErrBadConfig) {
		t.Error("nil rng accepted")
	}
	if _, err := c.Simulate(rng.New(1), -1, 1); !errors.Is(err, ErrBadConfig) {
		t.Error("negative state accepted")
	}
	if _, err := c.Simulate(rng.New(1), c.N()+1, 1); !errors.Is(err, ErrBadConfig) {
		t.Error("state beyond N accepted")
	}
}

func TestBinomialPMFProperties(t *testing.T) {
	t.Parallel()

	for _, tc := range []struct {
		n int
		p float64
	}{
		{n: 0, p: 0.5}, {n: 1, p: 0.3}, {n: 50, p: 0}, {n: 50, p: 1},
		{n: 100, p: 0.25}, {n: 400, p: 0.9},
	} {
		dst := make([]float64, tc.n+1)
		binomialPMF(dst, tc.n, tc.p)
		total := 0.0
		mean := 0.0
		for k, v := range dst {
			if v < 0 {
				t.Fatalf("negative PMF value at n=%d p=%v k=%d", tc.n, tc.p, k)
			}
			total += v
			mean += float64(k) * v
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("PMF(n=%d, p=%v) sums to %v", tc.n, tc.p, total)
		}
		if math.Abs(mean-float64(tc.n)*tc.p) > 1e-7*float64(tc.n+1) {
			t.Errorf("PMF mean %v, want %v", mean, float64(tc.n)*tc.p)
		}
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func BenchmarkBuildChainN100(b *testing.B) {
	cfg := Config{N: 100, Eta1: 0.8, Eta2: 0.4, Mu: 0.05, Alpha: 0.3, Beta: 0.7}
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFixationN100(b *testing.B) {
	cfg := Config{N: 100, Eta1: 0.8, Eta2: 0.4, Mu: 0, Alpha: 0.3, Beta: 0.7}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FixationProbabilities(); err != nil {
			b.Fatal(err)
		}
	}
}

// RowSumError, StepDistribution and Simulate are test oracles: they
// cross-check the exact transition matrix and the analytic absorption
// quantities.

// RowSumError returns the worst |row sum − 1| across states — a
// correctness diagnostic for the exact construction.
func (c *Chain) RowSumError() float64 {
	worst := 0.0
	for k := 0; k <= c.cfg.N; k++ {
		sum := 0.0
		for j := 0; j <= c.cfg.N; j++ {
			sum += c.tm.At(k, j)
		}
		if d := math.Abs(sum - 1); d > worst {
			worst = d
		}
	}
	return worst
}

// StepDistribution advances a state distribution one step: πᵀT.
func (c *Chain) StepDistribution(pi []float64) ([]float64, error) {
	return c.tm.VecMul(pi)
}

// Simulate runs the chain forward from state k0 for steps steps and
// returns the end state. It samples from the exact transition rows, so
// its law matches the matrix by construction.
func (c *Chain) Simulate(r *rng.RNG, k0, steps int) (int, error) {
	if k0 < 0 || k0 > c.cfg.N || steps < 0 || r == nil {
		return 0, fmt.Errorf("%w: simulate k0=%d steps=%d", ErrBadConfig, k0, steps)
	}
	k := k0
	row := make([]float64, c.cfg.N+1)
	var table dist.Alias
	next := make([]int, 1)
	for s := 0; s < steps; s++ {
		for j := range row {
			row[j] = c.tm.At(k, j)
		}
		if err := table.Rebuild(row); err != nil {
			return 0, fmt.Errorf("markov: simulate: %w", err)
		}
		table.SampleInto(r, next)
		k = next[0]
		if c.IsAbsorbing() && (k == 0 || k == c.cfg.N) {
			break
		}
	}
	return k, nil
}
