package population

import (
	"math"
	"testing"

	"repro/internal/agent"
)

func mustLinear(t *testing.T, alpha, beta float64) agent.Linear {
	t.Helper()
	r, err := agent.NewLinear(alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// blockStepper is the surface the invariance tests exercise.
type blockStepper interface {
	StepBlock() error
	Lanes() int
	AppendPopularity(lane int, dst []float64) []float64
	CumulativeGroupReward(lane int) float64
	GroupReward(lane int) float64
}

// laneSnapshot runs a block for steps and returns each lane's final
// popularity row and cumulative reward.
func laneSnapshot(t *testing.T, b blockStepper, steps int) (pops [][]float64, cums []float64) {
	t.Helper()
	for s := 0; s < steps; s++ {
		if err := b.StepBlock(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < b.Lanes(); k++ {
		pops = append(pops, b.AppendPopularity(k, nil))
		cums = append(cums, b.CumulativeGroupReward(k))
	}
	return pops, cums
}

func sameLanes(t *testing.T, label string, wantPops, gotPops [][]float64, wantCums, gotCums []float64, off int) {
	t.Helper()
	for k := range gotPops {
		if math.Float64bits(wantCums[off+k]) != math.Float64bits(gotCums[k]) {
			t.Fatalf("%s: lane %d cumulative reward %v, want %v", label, off+k, gotCums[k], wantCums[off+k])
		}
		for j := range gotPops[k] {
			if math.Float64bits(wantPops[off+k][j]) != math.Float64bits(gotPops[k][j]) {
				t.Fatalf("%s: lane %d popularity[%d] %v, want %v", label, off+k, j, gotPops[k][j], wantPops[off+k][j])
			}
		}
	}
}

// TestAgentBlockChunkInvariance pins the heart of the v2 contract: a
// 6-lane block must replay bit-identically as blocks of 4+2 and as six
// single-lane blocks — block width is scheduling, not contract.
func TestAgentBlockChunkInvariance(t *testing.T) {
	t.Parallel()
	cfg := Config{
		N:    300,
		Mu:   0.05,
		Rule: mustLinear(t, 0.3, 0.7),
		Env:  mustEnv(t, 0.9, 0.5, 0.4),
		Seed: 99,
	}
	const steps, lanes = 50, 6

	whole, err := NewAgentBlockEngine(cfg, 0, lanes)
	if err != nil {
		t.Fatal(err)
	}
	wantPops, wantCums := laneSnapshot(t, whole, steps)

	for _, chunk := range []struct {
		lane0, width int
	}{{0, 4}, {4, 2}, {0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}} {
		b, err := NewAgentBlockEngine(cfg, chunk.lane0, chunk.width)
		if err != nil {
			t.Fatal(err)
		}
		gotPops, gotCums := laneSnapshot(t, b, steps)
		sameLanes(t, "agent chunk", wantPops, gotPops, wantCums, gotCums, chunk.lane0)
	}
}

// TestAgentBlockBoundaryRule covers the boundary adoption rule (α = 0
// and β = 1 thinnings consume no draw via the binomial's exact clamps)
// with the same chunk invariance.
func TestAgentBlockBoundaryRule(t *testing.T) {
	t.Parallel()
	cfg := Config{
		N:    150,
		Mu:   0.1,
		Rule: mustLinear(t, 0, 1),
		Env:  mustEnv(t, 0.8, 0.4),
		Seed: 7,
	}
	const steps, lanes = 40, 5
	whole, err := NewAgentBlockEngine(cfg, 0, lanes)
	if err != nil {
		t.Fatal(err)
	}
	wantPops, wantCums := laneSnapshot(t, whole, steps)
	for k := 0; k < lanes; k++ {
		b, err := NewAgentBlockEngine(cfg, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		gotPops, gotCums := laneSnapshot(t, b, steps)
		sameLanes(t, "agent boundary chunk", wantPops, gotPops, wantCums, gotCums, k)
	}
}

func TestAggregateBlockChunkInvariance(t *testing.T) {
	t.Parallel()
	cfg := Config{
		N:    50_000,
		Mu:   0.05,
		Rule: mustLinear(t, 0.3, 0.7),
		Env:  mustEnv(t, 0.9, 0.5, 0.5, 0.2),
		Seed: 11,
	}
	const steps, lanes = 60, 5
	whole, err := NewAggregateBlockEngine(cfg, 0, lanes)
	if err != nil {
		t.Fatal(err)
	}
	wantPops, wantCums := laneSnapshot(t, whole, steps)
	for _, chunk := range []struct {
		lane0, width int
	}{{0, 3}, {3, 2}, {0, 1}, {4, 1}} {
		b, err := NewAggregateBlockEngine(cfg, chunk.lane0, chunk.width)
		if err != nil {
			t.Fatal(err)
		}
		gotPops, gotCums := laneSnapshot(t, b, steps)
		sameLanes(t, "aggregate chunk", wantPops, gotPops, wantCums, gotCums, chunk.lane0)
	}
}

// TestBlockResetReplays pins Reset(seed, lane0): a reset block must
// replay its first run bit for bit, including at a nonzero lane0.
func TestBlockResetReplays(t *testing.T) {
	t.Parallel()
	cfg := Config{
		N:    200,
		Mu:   0.05,
		Rule: mustLinear(t, 0.3, 0.7),
		Env:  mustEnv(t, 0.9, 0.5, 0.4),
		Seed: 5,
	}
	const steps, lane0, lanes = 30, 3, 5

	agentB, err := NewAgentBlockEngine(cfg, lane0, lanes)
	if err != nil {
		t.Fatal(err)
	}
	wantPops, wantCums := laneSnapshot(t, agentB, steps)
	agentB.Reset(cfg.Seed, lane0)
	if agentB.T() != 0 {
		t.Fatal("Reset did not zero the step counter")
	}
	gotPops, gotCums := laneSnapshot(t, agentB, steps)
	sameLanes(t, "agent reset", wantPops, gotPops, wantCums, gotCums, 0)

	aggB, err := NewAggregateBlockEngine(cfg, lane0, lanes)
	if err != nil {
		t.Fatal(err)
	}
	wantPops, wantCums = laneSnapshot(t, aggB, steps)
	aggB.Reset(cfg.Seed, lane0)
	gotPops, gotCums = laneSnapshot(t, aggB, steps)
	sameLanes(t, "aggregate reset", wantPops, gotPops, wantCums, gotCums, 0)
}

func TestBlockEngineRejectsBadConfigs(t *testing.T) {
	t.Parallel()
	good := Config{
		N:    100,
		Mu:   0.05,
		Rule: mustLinear(t, 0.3, 0.7),
		Env:  mustEnv(t, 0.9, 0.5),
		Seed: 1,
	}
	if _, err := NewAgentBlockEngine(good, -1, 2); err == nil {
		t.Fatal("expected error for negative lane0")
	}
	if _, err := NewAgentBlockEngine(good, 0, 0); err == nil {
		t.Fatal("expected error for zero lanes")
	}
	opaque := good
	opaque.Rule = opaqueRule{lin: mustLinear(t, 0.3, 0.7)}
	if _, err := NewAgentBlockEngine(opaque, 0, 2); err == nil {
		t.Fatal("expected error for a rule that is not agent.Linear")
	}
	if _, err := NewAggregateBlockEngine(good, 0, -1); err == nil {
		t.Fatal("expected error for negative lanes")
	}
}
