package experiment

import (
	"errors"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	t.Parallel()

	specs := Registry()
	if len(specs) != 14 {
		t.Fatalf("registry has %d experiments, want 14", len(specs))
	}
	seen := make(map[string]bool)
	for i, s := range specs {
		if s.ID == "" || s.Title == "" || s.Run == nil {
			t.Errorf("spec %d incomplete: %+v", i, s)
		}
		if seen[s.ID] {
			t.Errorf("duplicate ID %s", s.ID)
		}
		seen[s.ID] = true
		if !strings.HasPrefix(s.ID, "E") {
			t.Errorf("ID %s not in Ek form", s.ID)
		}
	}
}

// The experiment runs below use deliberately scaled-down options so the
// whole package tests in seconds; the default options exercise the full
// sweeps via cmd/repro and the benchmarks.

func TestE01SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E01InfiniteRegret(E01Options{
		Ms:           []int{2, 5},
		Betas:        []float64{0.6},
		HorizonScale: 3,
		Reps:         10,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "E01" || len(res.Table.Rows) != 2 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if res.Metrics["violations"] != 0 {
		t.Errorf("Theorem 4.3 bound violated in %v cases", res.Metrics["violations"])
	}
}

func TestE01Validation(t *testing.T) {
	t.Parallel()

	if _, err := E01InfiniteRegret(E01Options{}); !errors.Is(err, ErrBadOptions) {
		t.Error("empty options accepted")
	}
}

func TestE02SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E02BestOptionMass(E02Options{
		Gaps:         []float64{0.4},
		Beta:         0.55,
		M:            4,
		HorizonScale: 3,
		Reps:         10,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mass := res.Metrics["mass/gap=0.40"]
	bound := res.Metrics["bound/gap=0.40"]
	if mass < bound {
		t.Errorf("best-option mass %v below Theorem 4.3 bound %v", mass, bound)
	}
}

func TestE03SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E03FiniteRegret(E03Options{
		Ms:           []int{2},
		Ns:           []int{1000, 100000},
		Beta:         0.6,
		HorizonScale: 3,
		Reps:         6,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := res.Metrics["bound/m=2"]
	for _, n := range []string{"1000", "100000"} {
		got, ok := res.Metrics["regret/m=2/N="+n]
		if !ok {
			t.Fatalf("missing metric for N=%s", n)
		}
		if got > bound {
			t.Errorf("N=%s: regret %v above 6*delta=%v", n, got, bound)
		}
	}
}

func TestE04SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E04Coupling(E04Options{
		Ns:    []int{1000, 100000},
		Steps: 5,
		Beta:  0.7,
		Mu:    0.05,
		Reps:  6,
		Seed:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	small := res.Metrics["dev/N=1000/t=5"]
	large := res.Metrics["dev/N=100000/t=5"]
	if large >= small {
		t.Errorf("coupling deviation did not shrink with N: %v (10^3) vs %v (10^5)", small, large)
	}
	early := res.Metrics["dev/N=1000/t=1"]
	if small < early {
		t.Errorf("deviation did not grow with t: t=1 %v vs t=5 %v", early, small)
	}
}

func TestE05SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E05Ablation(E05Options{
		N: 1000, M: 5, Beta: 0.7, Steps: 400, Reps: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["full_minus_best_ablation"] <= 0 {
		t.Errorf("full dynamics did not beat both ablations: %+v", res.Metrics)
	}
	if res.Metrics["q1/full dynamics"] < 0.6 {
		t.Errorf("full dynamics q1 = %v", res.Metrics["q1/full dynamics"])
	}
}

func TestE06SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E06Epochs(E06Options{
		M: 4, Beta: 0.6, EpochScale: 1, Epochs: 3, Reps: 8, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := res.Metrics["bound"]
	if res.Metrics["regret/one-epoch"] > bound {
		t.Errorf("one-epoch regret %v above %v", res.Metrics["regret/one-epoch"], bound)
	}
	if res.Metrics["regret/long"] > bound {
		t.Errorf("long-horizon regret %v above %v", res.Metrics["regret/long"], bound)
	}
}

func TestE07SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E07Baselines(E07Options{
		M: 5, N: 500, Beta: 0.6, Horizon: 800, Reps: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	group := res.Metrics["regret/group"]
	hedge := res.Metrics["regret/hedge"]
	if hedge >= group {
		t.Errorf("tuned Hedge (%v) should beat the socially constrained group (%v)", hedge, group)
	}
	if len(res.Table.Rows) != 5 {
		t.Errorf("expected 5 learners, got %d rows", len(res.Table.Rows))
	}
}

func TestE08SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E08WordOfMouth(E08Options{
		N: 1000, ShockScale: 1, Steps: 300, Reps: 5, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric shocks imply alpha ~= 1 - beta.
	if s := res.Metrics["alpha+beta"]; s < 0.97 || s > 1.03 {
		t.Errorf("alpha+beta = %v, want ~1", s)
	}
	if res.Metrics["alpha"] >= res.Metrics["beta"] {
		t.Error("induced alpha >= beta")
	}
	if res.Metrics["q1"] < 0.6 {
		t.Errorf("word-of-mouth dynamics share = %v, want > 0.6", res.Metrics["q1"])
	}
}

func TestE09SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E09Investors(E09Options{
		N: 1000, M: 3, Eta1: 0.65,
		Betas: []float64{0.55, 0.7},
		Steps: 1200, Reps: 5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo := res.Metrics["q1/beta=0.55"]
	hi := res.Metrics["q1/beta=0.70"]
	if hi < 0.5 {
		t.Errorf("beta=0.7 share = %v, want majority on the good asset", hi)
	}
	if lo <= 0 || lo > 1 || hi <= 0 || hi > 1 {
		t.Errorf("shares out of range: %v %v", lo, hi)
	}
}

func TestE10SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E10Topology(E10Options{
		N: 100, Beta: 0.7, Mu: 0.02, Steps: 400, Target: 0.6, Reps: 3, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []string{"complete", "ring", "torus", "star", "erdos-renyi", "watts-strogatz", "barabasi-albert"} {
		share, ok := res.Metrics["share/"+topo]
		if !ok {
			t.Fatalf("missing topology %s", topo)
		}
		if share < 0.5 {
			t.Errorf("%s: late share %v, want > 0.5", topo, share)
		}
	}
	// Shape: complete graph converges no slower than the ring.
	if res.Metrics["hit/complete"] > res.Metrics["hit/ring"] {
		t.Errorf("complete slower than ring: %v vs %v",
			res.Metrics["hit/complete"], res.Metrics["hit/ring"])
	}
}

func TestE11SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E11Drift(E11Options{
		N: 1000, M: 3, Beta: 0.7, Steps: 800,
		Sigmas: []float64{0, 0.02}, Period: 200, Reps: 5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	static := res.Metrics["dynregret/drifting sigma=0.000"]
	drifting := res.Metrics["dynregret/drifting sigma=0.020"]
	if static < 0 || static > 1 || drifting < 0 || drifting > 1 {
		t.Errorf("regrets out of range: %v %v", static, drifting)
	}
	if drifting < static {
		t.Errorf("drift did not increase regret: static %v vs drifting %v", static, drifting)
	}
}

func TestE12SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E12MuSweep(E12Options{
		N: 100, M: 5, Gap: 0.05, Beta: 0.7, Steps: 1000, Reps: 20, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	fixZero := res.Metrics["fixation/mu=0.0000"]
	if fixZero == 0 {
		t.Error("mu=0 never fixated on a suboptimal option; expected constant probability of fixation")
	}
	// mu=1 should have low late Q1 (pure exploration keeps mass spread).
	q1MuOne := res.Metrics["q1/mu=1.0000"]
	if q1MuOne > 0.6 {
		t.Errorf("mu=1 q1 = %v, expected diluted mass", q1MuOne)
	}
}

func TestE13SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E13Concentration(E13Options{
		M: 4, Ns: []int{1000, 100000}, Mu: 0.1, Beta: 0.7, Reps: 500, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"1000", "100000"} {
		if v := res.Metrics["violations1/N="+n]; v > 0 {
			t.Errorf("N=%s: %v stage-1 concentration violations", n, v)
		}
		if v := res.Metrics["violations2/N="+n]; v > 0 {
			t.Errorf("N=%s: %v stage-2 concentration violations", n, v)
		}
	}
	// Deviations shrink with N.
	if res.Metrics["p99_stage1/N=100000"] >= res.Metrics["p99_stage1/N=1000"] {
		t.Error("stage-1 deviation did not shrink with N")
	}
}

func TestE14SmallRun(t *testing.T) {
	t.Parallel()

	res, err := E14Protocol(E14Options{
		Nodes: 200, Beta: 0.7, Mu: 0.02, Steps: 400,
		Losses: []float64{0, 0.1}, Reps: 3, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["share/loss=0.00"] < 0.6 {
		t.Errorf("loss-free share = %v", res.Metrics["share/loss=0.00"])
	}
	if res.Metrics["msgs/loss=0.00"] > 2 {
		t.Errorf("messages per node per round = %v, want <= 2", res.Metrics["msgs/loss=0.00"])
	}
	if res.Metrics["share/10% crash at round 50"] < 0.55 {
		t.Errorf("crash share = %v", res.Metrics["share/10% crash at round 50"])
	}
}
