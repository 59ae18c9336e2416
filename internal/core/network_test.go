package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/infinite"
	"repro/internal/stats"
)

func TestNetworkGroup(t *testing.T) {
	t.Parallel()

	g10x10, err := graph.Torus(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := New(Config{
		Network:   g10x10,
		Qualities: []float64{0.9, 0.3},
		Beta:      0.7,
		Mu:        0.02,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := grp.e.(*infinite.Process); ok {
		t.Error("network group reported infinite")
	}
	rep, err := grp.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if grp.T() != 500 {
		t.Errorf("T = %d", grp.T())
	}
	if !stats.IsProbabilityVector(rep.Popularity, 1e-9) {
		t.Fatalf("popularity %v", rep.Popularity)
	}
	if rep.Popularity[0] < 0.6 {
		t.Errorf("network group best-option share %v, want > 0.6", rep.Popularity[0])
	}
	if rep.Regret < -0.2 || rep.Regret > 0.7 {
		t.Errorf("regret %v implausible", rep.Regret)
	}
}

func TestNetworkGroupStepAndReward(t *testing.T) {
	t.Parallel()

	ring, err := graph.Ring(50)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := New(Config{
		Network:   ring,
		Qualities: []float64{0.8, 0.4},
		Beta:      0.6,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := grp.Step(); err != nil {
			t.Fatal(err)
		}
		if r := grp.GroupReward(); r < 0 || r > 1+1e-9 {
			t.Errorf("group reward %v out of [0,1]", r)
		}
	}
	if grp.T() != 5 {
		t.Errorf("T = %d", grp.T())
	}
}

func TestNetworkGroupValidation(t *testing.T) {
	t.Parallel()

	// Network with a bad rule still surfaces the rule error.
	ring, err := graph.Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Network: ring, Qualities: []float64{0.9, 0.5}, Beta: 1.7}); err == nil {
		t.Error("beta > 1 accepted for network group")
	}
}
