package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/env"
	"repro/internal/graph"
)

// TestTemplateMatchesNew is the template's core guarantee: a group
// stamped out of a Template reproduces core.New with the equivalent
// Config bit for bit, for every engine and the infinite process.
func TestTemplateMatchesNew(t *testing.T) {
	t.Parallel()

	base := Config{
		Qualities: []float64{0.9, 0.5, 0.5},
		Beta:      0.7,
	}
	tmpl, err := NewTemplate(base)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		n      int
		engine EngineKind
	}{
		{"aggregate", 10_000, EngineAggregate},
		{"agent", 500, EngineAgent},
		{"infinite", 0, EngineAggregate},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			cfg.N = c.n
			cfg.Engine = c.engine
			cfg.Seed = 42
			want, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tmpl.Group(c.n, c.engine, 42)
			if err != nil {
				t.Fatal(err)
			}
			if got.Mu() != want.Mu() || got.BestQuality() != want.BestQuality() {
				t.Fatalf("template group mu=%v eta1=%v, want mu=%v eta1=%v",
					got.Mu(), got.BestQuality(), want.Mu(), want.BestQuality())
			}
			for step := 0; step < 200; step++ {
				if err := want.Step(); err != nil {
					t.Fatal(err)
				}
				if err := got.Step(); err != nil {
					t.Fatal(err)
				}
				if got.GroupReward() != want.GroupReward() {
					t.Fatalf("step %d: reward %v, want %v", step, got.GroupReward(), want.GroupReward())
				}
			}
			gp, wp := got.Popularity(), want.Popularity()
			for j := range wp {
				if gp[j] != wp[j] {
					t.Fatalf("popularity[%d] = %v, want %v", j, gp[j], wp[j])
				}
			}
		})
	}
}

// TestTemplateConcurrentGroups runs many groups off one template in
// parallel (under -race this verifies the shared environment is safe
// for concurrent stepping).
func TestTemplateConcurrentGroups(t *testing.T) {
	t.Parallel()

	tmpl, err := NewTemplate(Config{Qualities: []float64{0.8, 0.4}, Beta: 0.65})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := tmpl.Group(1000, EngineAggregate, uint64(i))
			if err != nil {
				errs[i] = err
				return
			}
			for s := 0; s < 300; s++ {
				if err := g.Step(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("group %d: %v", i, err)
		}
	}
}

func TestTemplateRejectsStatefulConfigs(t *testing.T) {
	t.Parallel()

	drift, err := env.NewDrifting([]float64{0.7, 0.3}, 0.01, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTemplate(Config{Environment: drift, Beta: 0.6}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("custom environment accepted: %v", err)
	}
	if _, err := NewTemplate(Config{Qualities: []float64{0.7, 0.3}, Beta: 7}); err == nil {
		t.Error("invalid beta accepted")
	}
	tmpl, err := NewTemplate(Config{Qualities: []float64{0.7, 0.3}, Beta: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmpl.Group(100, EngineKind(99), 1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad engine accepted: %v", err)
	}
}

// TestTemplateNetworkMatchesNew pins the network half of the template:
// groups and blocks stamped out of one template share its graph, yet
// each equals core.New / core.NewBlock on a freshly built graph of its
// own, bit for bit — interleaved stepping shows no run leaks state
// into another through the shared graph.
func TestTemplateNetworkMatchesNew(t *testing.T) {
	t.Parallel()

	ring := func() *graph.Graph {
		g, err := graph.Ring(30)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	base := Config{Qualities: []float64{0.9, 0.5, 0.5}, Beta: 0.7, Network: ring()}
	tmpl, err := NewTemplate(base)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(seed uint64) Config {
		cfg := base
		cfg.Network, cfg.Seed = ring(), seed
		return cfg
	}

	const steps = 150
	var got, want [2]*Group
	for i := range got {
		seed := uint64(7 + i)
		if got[i], err = tmpl.Group(0, EngineAggregate, seed); err != nil {
			t.Fatal(err)
		}
		if want[i], err = New(fresh(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < steps; step++ {
		for i := range got {
			if err := got[i].Step(); err != nil {
				t.Fatal(err)
			}
			if err := want[i].Step(); err != nil {
				t.Fatal(err)
			}
			if got[i].GroupReward() != want[i].GroupReward() {
				t.Fatalf("group %d step %d: reward %v, want %v", i, step, got[i].GroupReward(), want[i].GroupReward())
			}
		}
	}
	for i := range got {
		gp, wp := got[i].Popularity(), want[i].Popularity()
		for j := range wp {
			if gp[j] != wp[j] {
				t.Fatalf("group %d popularity[%d] = %v, want %v", i, j, gp[j], wp[j])
			}
		}
	}

	const lane0, lanes = 2, 3
	wantBlock, err := NewBlock(fresh(11), lane0, lanes)
	if err != nil {
		t.Fatal(err)
	}
	gotBlock, err := tmpl.NewBlock(0, EngineAggregate, 11, lane0, lanes)
	if err != nil {
		t.Fatal(err)
	}
	wantPops, wantCums := runBlock(t, wantBlock, lanes, steps)
	gotPops, gotCums := runBlock(t, gotBlock, lanes, steps)
	assertLanesEqual(t, "template network block", wantPops, gotPops, wantCums, gotCums, 0)
}
