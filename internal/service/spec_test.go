package service

import (
	"encoding/json"
	"errors"
	"runtime"
	"testing"
)

func validSpec() Spec {
	return Spec{
		N:         1000,
		Qualities: []float64{0.9, 0.5, 0.5},
		Beta:      0.7,
		Steps:     200,
		Seed:      42,
	}
}

func TestSpecValidate(t *testing.T) {
	t.Parallel()

	s := validSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.Engine != "aggregate" || s.Replications != 1 {
		t.Errorf("Normalize left engine=%q replications=%d", s.Engine, s.Replications)
	}

	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no steps", func(s *Spec) { s.Steps = 0 }},
		{"negative n", func(s *Spec) { s.N = -1 }},
		{"negative replications", func(s *Spec) { s.Replications = -2 }},
		{"work limit", func(s *Spec) { s.Steps = MaxSteps; s.Replications = 2 }},
		{"steps overflow", func(s *Spec) { s.Steps = int(^uint(0) >> 1); s.Replications = 2 }},
		{"replications overflow", func(s *Spec) { s.Steps = 2; s.Replications = int(^uint(0) >> 1) }},
		{"torus overflow", func(s *Spec) {
			s.Topology = &Topology{Kind: "torus", Rows: MaxPopulation, Cols: MaxPopulation}
		}},
		{"torus edge limit", func(s *Spec) {
			s.Topology = &Topology{Kind: "torus", Rows: 1000, Cols: 1000} // 2·10⁶ edges
		}},
		{"complete edge limit", func(s *Spec) {
			s.Topology = &Topology{Kind: "complete", Nodes: 100_000} // ~5·10⁹ edges
		}},
		{"ring edge limit", func(s *Spec) {
			s.Topology = &Topology{Kind: "ring", Nodes: MaxPopulation}
		}},
		{"star edge limit", func(s *Spec) {
			s.Topology = &Topology{Kind: "star", Nodes: MaxPopulation}
		}},
		{"agent work limit", func(s *Spec) {
			s.Engine = "agent"
			s.N = 1_000_000
			s.Steps = MaxSteps // 5·10¹³ agent-steps
		}},
		{"agent population limit", func(s *Spec) {
			s.Engine = "agent"
			s.N = MaxAgentPopulation + 1 // O(N) engine state
			s.Steps = 1
		}},
		{"options work limit", func(s *Spec) {
			s.Qualities = make([]float64, MaxOptions)
			for j := range s.Qualities {
				s.Qualities[j] = 0.5
			}
			s.Steps = MaxSteps // 5·10¹¹ option-updates
		}},
		{"topology work limit", func(s *Spec) {
			s.Topology = &Topology{Kind: "ring", Nodes: 1_000_000}
			s.Steps = MaxSteps // 5·10¹³ node-steps
		}},
		{"topology rebuild work limit", func(s *Spec) {
			// Edge- and step-cost admissible, but 7·10⁶ replications
			// each rebuild ~10⁶ adjacency entries: ~7·10¹² setup ops.
			s.Topology = &Topology{Kind: "complete", Nodes: 1414}
			s.Steps = 1
			s.Replications = 7_000_000
		}},
		{"bad engine", func(s *Spec) { s.Engine = "warp" }},
		{"bad beta", func(s *Spec) { s.Beta = 1.5 }},
		{"bad quality", func(s *Spec) { s.Qualities = []float64{0.9, 1.7} }},
		{"no qualities", func(s *Spec) { s.Qualities = nil }},
		{"negative trace", func(s *Spec) { s.TraceEvery = -1 }},
		{"bad topology kind", func(s *Spec) { s.Topology = &Topology{Kind: "hypercube", Nodes: 8} }},
		{"bad topology size", func(s *Spec) { s.Topology = &Topology{Kind: "ring", Nodes: 1} }},
		{"bad mu", func(s *Spec) { mu := 1.5; s.Mu = &mu }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSpec()
			c.mutate(&s)
			if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
				t.Errorf("Validate = %v, want ErrBadSpec", err)
			}
		})
	}
}

func TestSpecValidateTopologies(t *testing.T) {
	t.Parallel()

	for _, topo := range []Topology{
		{Kind: "complete", Nodes: 16},
		{Kind: "ring", Nodes: 16},
		{Kind: "star", Nodes: 16},
		{Kind: "torus", Rows: 4, Cols: 4},
	} {
		s := validSpec()
		s.Topology = &topo
		if err := s.Validate(); err != nil {
			t.Errorf("topology %q rejected: %v", topo.Kind, err)
		}
	}
}

// TestSpecHashDeterministicAndCanonical checks that hashing is stable,
// that normalization makes explicit defaults and absent fields
// collide, and that meaningful changes separate.
func TestSpecHashDeterministicAndCanonical(t *testing.T) {
	t.Parallel()

	a := validSpec()
	h1, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("hash not deterministic: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Errorf("hash %q is not sha256 hex", h1)
	}

	// Explicit defaults hash like absent ones.
	b := validSpec()
	b.Engine = "aggregate"
	b.Replications = 1
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hb != h1 {
		t.Errorf("normalized spec hashes differ: %s vs %s", hb, h1)
	}

	// Each meaningful change moves the hash.
	for name, mutate := range map[string]func(*Spec){
		"seed":      func(s *Spec) { s.Seed++ },
		"steps":     func(s *Spec) { s.Steps++ },
		"n":         func(s *Spec) { s.N++ },
		"beta":      func(s *Spec) { s.Beta = 0.71 },
		"qualities": func(s *Spec) { s.Qualities = []float64{0.9, 0.5, 0.51} },
		"alpha":     func(s *Spec) { alpha := 0.3; s.Alpha = &alpha },
		"engine":    func(s *Spec) { s.Engine = "agent" },
		"topology":  func(s *Spec) { s.Topology = &Topology{Kind: "ring", Nodes: 1000} },
	} {
		c := validSpec()
		mutate(&c)
		hc, err := c.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if hc == h1 {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

// TestSpecHashCanonicalizesExplicitDefaults is the regression test
// for cache-key fragmentation: spelling out a derived paper default —
// alpha = 1−β exactly, mu = δ²/6 exactly — denotes the same
// simulation as leaving the field absent and must produce the same
// cache key, while explicit zeros (the ablation regimes) and any
// other explicit value must keep their own keys.
func TestSpecHashCanonicalizesExplicitDefaults(t *testing.T) {
	t.Parallel()

	base := validSpec()
	want, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	alpha := 1 - base.Beta // bit-identical to the derived default
	withAlpha := validSpec()
	withAlpha.Alpha = &alpha
	if h, err := withAlpha.Hash(); err != nil || h != want {
		t.Errorf("explicit alpha=1−β hash %s (err %v), want %s", h, err, want)
	}
	if withAlpha.Alpha != nil {
		t.Error("Normalize left the default alpha pointer set")
	}

	mu, ok := defaultMu(base.Beta)
	if !ok {
		t.Fatalf("no default mu for beta=%v", base.Beta)
	}
	withMu := validSpec()
	withMu.Mu = &mu
	if h, err := withMu.Hash(); err != nil || h != want {
		t.Errorf("explicit mu=δ²/6 hash %s (err %v), want %s", h, err, want)
	}

	// Both at once, next to the already-covered engine/replications
	// defaults: the fully spelled-out spec is one cache entry with the
	// terse one.
	full := validSpec()
	full.Alpha = &alpha
	full.Mu = &mu
	full.Engine = "aggregate"
	full.Replications = 1
	if h, err := full.Hash(); err != nil || h != want {
		t.Errorf("fully explicit-default spec hash %s (err %v), want %s", h, err, want)
	}

	// Explicit zeros force the ablation regimes and are NOT defaults.
	zero := 0.0
	alphaZero := validSpec()
	alphaZero.Alpha = &zero
	if h, err := alphaZero.Hash(); err != nil || h == want {
		t.Errorf("alpha=0 hash %s (err %v) collides with the default", h, err)
	}
	muZero := validSpec()
	muZero.Mu = &zero
	if h, err := muZero.Hash(); err != nil || h == want {
		t.Errorf("mu=0 hash %s (err %v) collides with the default", h, err)
	}

	// A non-default explicit value keeps its own key.
	other := 0.25
	withOther := validSpec()
	withOther.Alpha = &other
	if h, err := withOther.Hash(); err != nil || h == want {
		t.Errorf("alpha=0.25 hash %s (err %v) collides with the default", h, err)
	}

	// The beta≤1/2 fallback default (0.05) canonicalizes too.
	half := validSpec()
	half.Beta = 0.5
	hHalf, err := half.Hash()
	if err != nil {
		t.Fatal(err)
	}
	fallback := 0.05
	halfMu := validSpec()
	halfMu.Beta = 0.5
	halfMu.Mu = &fallback
	if h, err := halfMu.Hash(); err != nil || h != hHalf {
		t.Errorf("beta=0.5 explicit mu=0.05 hash %s (err %v), want %s", h, err, hHalf)
	}
}

// TestSpecJSONRoundTrip checks a spec survives encode/decode with its
// hash intact, so the wire form is the canonical form.
func TestSpecJSONRoundTrip(t *testing.T) {
	t.Parallel()

	s := validSpec()
	alpha := 0.0
	s.Alpha = &alpha // distinguishable from absent: forces α = 0
	s.TraceEvery = 10
	s.Topology = &Topology{Kind: "torus", Rows: 8, Cols: 4}
	h1, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Alpha == nil || *back.Alpha != 0 {
		t.Error("alpha pointer lost in round trip")
	}
	h2, err := back.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("round-tripped hash %s != %s", h2, h1)
	}
}

// TestSpecValidateDoesNotMaterialize is the regression test for the
// quadratic-topology / giant-population validation hazard: Validate on
// specs naming N = 10⁸ agent populations or 10⁵-node complete graphs
// must answer arithmetically, without building the group or graph
// (graph.Complete alone would allocate n·(n−1) adjacency ints — tens
// of GB). Deliberately not parallel: it meters process allocation.
func TestSpecValidateDoesNotMaterialize(t *testing.T) {
	aggregate := validSpec()
	aggregate.N = MaxPopulation // O(m) engine state: paper-generous N is fine

	agent := validSpec()
	agent.Engine = "agent"
	agent.N = MaxAgentPopulation
	agent.Steps = 10_000 // work = 10¹⁰ = MaxWork exactly: admitted

	rejected := []Spec{}
	for _, topo := range []Topology{
		{Kind: "complete", Nodes: 100_000},
		{Kind: "ring", Nodes: MaxPopulation},
		{Kind: "torus", Rows: 10_000, Cols: 10_000},
	} {
		s := validSpec()
		s.Topology = &topo
		rejected = append(rejected, s)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := aggregate.Validate(); err != nil {
		t.Fatalf("paper-scale aggregate spec rejected: %v", err)
	}
	if err := agent.Validate(); err != nil {
		t.Fatalf("limit-scale agent spec rejected: %v", err)
	}
	for i := range rejected {
		if err := rejected[i].Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("oversized topology %+v: Validate = %v, want ErrBadSpec", rejected[i].Topology, err)
		}
	}
	runtime.ReadMemStats(&after)
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Errorf("Validate allocated %d bytes; validation must not materialize groups or graphs", delta)
	}
}

// TestSpecDrawOrderCanonicalAndHashed pins the versioned draw-order
// surface: explicit "v1" is the canonical absent form (one cache entry
// with every pre-versioning spec), "v2" is a distinct cache key, and
// anything else is rejected.
func TestSpecDrawOrderCanonicalAndHashed(t *testing.T) {
	t.Parallel()

	base := validSpec()
	want, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	explicit := validSpec()
	explicit.DrawOrder = "v1"
	if h, err := explicit.Hash(); err != nil || h != want {
		t.Errorf("explicit draw_order=v1 hash %s (err %v), want the absent-form hash %s", h, err, want)
	}
	if explicit.DrawOrder != "" {
		t.Errorf("Normalize left draw_order=%q, want the absent form", explicit.DrawOrder)
	}

	v2 := validSpec()
	v2.DrawOrder = "v2"
	h2, err := v2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h2 == want {
		t.Error("draw_order=v2 hash collides with v1 — the versions must be distinct cache keys")
	}
	if err := v2.Validate(); err != nil {
		t.Errorf("draw_order=v2 rejected: %v", err)
	}
	if v2.DrawOrder != "v2" {
		t.Errorf("Normalize rewrote draw_order=%q, want v2 kept", v2.DrawOrder)
	}

	// The wire form round-trips with the hash intact.
	raw, err := json.Marshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if h, err := back.Hash(); err != nil || h != h2 {
		t.Errorf("round-tripped v2 hash %s (err %v), want %s", h, err, h2)
	}

	for _, bad := range []string{"v3", "V2", "2", "block"} {
		s := validSpec()
		s.DrawOrder = bad
		if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("draw_order=%q: Validate = %v, want ErrBadSpec", bad, err)
		}
	}

	// v2 composes with the rest of the surface: topology and agent
	// specs admit under the same work arithmetic.
	topo := validSpec()
	topo.DrawOrder = "v2"
	topo.Topology = &Topology{Kind: "ring", Nodes: 16}
	if err := topo.Validate(); err != nil {
		t.Errorf("v2 topology spec rejected: %v", err)
	}
}

// TestSweepSpecDrawOrderFamilyAxis pins that the sweep surface carries
// the version on the family: it normalizes, distinguishes the sweep
// hash, and flows into every variant spec.
func TestSweepSpecDrawOrderFamilyAxis(t *testing.T) {
	t.Parallel()

	mk := func(order string) SweepSpec {
		return SweepSpec{
			Family: SweepFamily{Qualities: []float64{0.9, 0.5}, Beta: 0.7, DrawOrder: order},
			Variants: []SweepVariant{
				{N: 1000, Steps: 100, Seed: 1, Replications: 2},
			},
		}
	}
	base := mk("")
	want, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	v1 := mk("v1")
	if h, err := v1.Hash(); err != nil || h != want {
		t.Errorf("family draw_order=v1 hash %s (err %v), want absent-form %s", h, err, want)
	}
	v2 := mk("v2")
	if err := v2.Validate(); err != nil {
		t.Fatalf("v2 sweep rejected: %v", err)
	}
	if h, err := v2.Hash(); err != nil || h == want {
		t.Errorf("family draw_order=v2 hash %s (err %v) collides with v1", h, err)
	}
	if got := v2.variantSpec(0).DrawOrder; got != "v2" {
		t.Errorf("variantSpec draw order %q, want v2", got)
	}
	bad := mk("v9")
	if err := bad.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("family draw_order=v9: Validate = %v, want ErrBadSpec", err)
	}
}
