package infinite

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func blockTestConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Mu:   0.05,
		Rule: mustRule(t, 0.7),
		Env:  mustEnv(t, 0.9, 0.5, 0.4),
		Seed: 42,
	}
}

// TestBlockLaneMatchesStripeSeededProcess pins the infinite v2 draw
// order: lane k of a block consumes exactly the draws of a
// per-trajectory Process seeded with rng.StripeSeed(seed, k) — the
// environment's m reward draws per step, in the same order. The block
// normalizes by reciprocal multiply where Process divides per element,
// so values agree only to within accumulated rounding (a draw-order bug
// would diverge by orders of magnitude more than the tolerance here);
// exact v2 bits are pinned by the top-level golden fixtures.
func TestBlockLaneMatchesStripeSeededProcess(t *testing.T) {
	t.Parallel()
	cfg := blockTestConfig(t)
	const steps, lane0, lanes = 80, 2, 5

	b, err := NewBlock(cfg, lane0, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if err := b.StepBlock(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < lanes; k++ {
		pcfg := cfg
		pcfg.Seed = rng.StripeSeed(cfg.Seed, lane0+k)
		p, err := New(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			if err := p.Step(); err != nil {
				t.Fatal(err)
			}
		}
		const tol = 1e-9
		if g, w := b.CumulativeGroupReward(k), p.CumulativeGroupReward(); math.Abs(g-w) > tol*math.Max(1, math.Abs(w)) {
			t.Fatalf("lane %d cumulative reward %v, process %v", k, g, w)
		}
		got := b.AppendPopularity(k, nil)
		want := p.Distribution()
		for j := range want {
			if math.Abs(got[j]-want[j]) > tol {
				t.Fatalf("lane %d P[%d] = %v, process %v", k, j, got[j], want[j])
			}
		}
	}
}

func TestBlockResetReplays(t *testing.T) {
	t.Parallel()
	cfg := blockTestConfig(t)
	const steps, lane0, lanes = 50, 1, 4
	b, err := NewBlock(cfg, lane0, lanes)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (pops [][]float64, cums []float64) {
		for s := 0; s < steps; s++ {
			if err := b.StepBlock(); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < lanes; k++ {
			pops = append(pops, b.AppendPopularity(k, nil))
			cums = append(cums, b.CumulativeGroupReward(k))
		}
		return pops, cums
	}
	wantPops, wantCums := run()
	b.Reset(cfg.Seed, lane0)
	if b.T() != 0 {
		t.Fatal("Reset did not zero the step counter")
	}
	gotPops, gotCums := run()
	for k := 0; k < lanes; k++ {
		if math.Float64bits(wantCums[k]) != math.Float64bits(gotCums[k]) {
			t.Fatalf("lane %d cumulative reward after reset: %v, want %v", k, gotCums[k], wantCums[k])
		}
		for j := range wantPops[k] {
			if math.Float64bits(wantPops[k][j]) != math.Float64bits(gotPops[k][j]) {
				t.Fatalf("lane %d P[%d] after reset: %v, want %v", k, j, gotPops[k][j], wantPops[k][j])
			}
		}
	}
}

func TestNewBlockRejectsBadConfigs(t *testing.T) {
	t.Parallel()
	good := blockTestConfig(t)
	if _, err := NewBlock(good, -1, 2); err == nil {
		t.Fatal("expected error for negative lane0")
	}
	if _, err := NewBlock(good, 0, 0); err == nil {
		t.Fatal("expected error for zero lanes")
	}
	raw := good
	raw.TrackRawWeights = true
	if _, err := NewBlock(raw, 0, 2); err == nil {
		t.Fatal("expected error for raw-weight tracking in block form")
	}
	bad := good
	bad.Mu = -0.5
	if _, err := NewBlock(bad, 0, 2); err == nil {
		t.Fatal("expected error for bad mu")
	}
}
