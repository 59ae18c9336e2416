// Package service turns the simulation library into a long-running
// serving subsystem: a JSON Spec that hashes deterministically to a
// cache key, a bounded job scheduler with admission control, a
// result cache with single-flight deduplication over a pluggable
// storage backend (in-proc LRU, or internal/store's tiered
// memory+disk store for persistence across restarts), and net/http
// handlers (sync, async jobs, NDJSON trace streaming — incremental
// for running jobs — health and stats). cmd/reprod is the daemon
// binary wiring it together.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/regret"
)

// ErrBadSpec reports an invalid simulation request.
var ErrBadSpec = errors.New("service: invalid spec")

// Limits protecting the server from abusive specs. Generous enough for
// every paper-scale workload (aggregate-engine N up to 10⁸, horizons up
// to 10⁷); they exist to bound the memory and CPU one request can pin.
const (
	// MaxSteps bounds Steps × Replications, the simulated horizon of
	// one request.
	MaxSteps = 50_000_000
	// MaxOptions bounds the number of options m.
	MaxOptions = 10_000
	// MaxPopulation bounds N for the aggregate engine, which keeps
	// O(m) state regardless of N, so this can stay paper-generous.
	MaxPopulation = 100_000_000
	// MaxAgentPopulation bounds N for the agent engine, whose state is
	// O(N) (per-agent rule and held option, ~24 B each): 10⁶ agents is
	// ~25 MB per running job, where MaxPopulation would be gigabytes.
	// The agent engine exists for small-N studies; large-N requests
	// belong on the aggregate engine.
	MaxAgentPopulation = 1_000_000
	// MaxTopologyEdges bounds a topology's edge count, computed
	// arithmetically before any graph is built. Graph memory is
	// O(nodes + edges) and every supported kind is connected
	// (edges ≥ nodes−1), so this single bound caps both dimensions —
	// in particular a complete graph is held to ~√(2·MaxTopologyEdges)
	// ≈ 1400 nodes instead of MaxPopulation.
	MaxTopologyEdges = 1_000_000
	// MaxWork bounds the total simulated operations of one request:
	// Steps × Replications × per-step cost, plus a per-replication
	// setup charge of the topology's edge count. Per-step cost is O(m)
	// for the aggregate engine, O(N) for the agent engine, and
	// O(nodes) for a topology, so a horizon-scale limit alone would
	// still admit ~10¹⁵-op agent-engine jobs; this folds population
	// size into admission control.
	MaxWork = 10_000_000_000
	// MaxTraceRows bounds the recorded trajectory length of one job.
	MaxTraceRows = 1_000_000
)

// Topology describes an optional deterministic sampling network (the
// conclusion's graph-restricted extension). Random graph families are
// excluded on purpose: a Spec must denote one simulation, so its hash
// can be a cache key.
type Topology struct {
	// Kind is one of "complete", "ring", "star", or "torus".
	Kind string `json:"kind"`
	// Nodes is the node count for complete/ring/star.
	Nodes int `json:"nodes,omitempty"`
	// Rows and Cols give the torus dimensions.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
}

// build constructs the graph. Callers must size-check with size()
// first: the generators materialize O(nodes + edges) state.
func (t *Topology) build() (*graph.Graph, error) {
	switch t.Kind {
	case "complete":
		return graph.Complete(t.Nodes)
	case "ring":
		return graph.Ring(t.Nodes)
	case "star":
		return graph.Star(t.Nodes)
	case "torus":
		return graph.Torus(t.Rows, t.Cols)
	default:
		return nil, fmt.Errorf("%w: unknown topology kind %q", ErrBadSpec, t.Kind)
	}
}

// size returns the node and undirected-edge counts the topology would
// materialize, computed arithmetically so validation never builds the
// graph (a complete graph allocates n·(n−1) adjacency entries, which
// must be bounded before construction, not after). The minimum-size
// rules mirror the graph generators so rejections stay ErrBadSpec.
// Callers bound each dimension by MaxPopulation first; the products
// then fit int64 without overflow.
func (t *Topology) size() (nodes, edges int64, err error) {
	n := int64(t.Nodes)
	switch t.Kind {
	case "complete":
		if n < 1 {
			return 0, 0, fmt.Errorf("%w: complete needs nodes>=1, got %d", ErrBadSpec, n)
		}
		return n, n * (n - 1) / 2, nil
	case "ring":
		if n < 3 {
			return 0, 0, fmt.Errorf("%w: ring needs nodes>=3, got %d", ErrBadSpec, n)
		}
		return n, n, nil
	case "star":
		if n < 2 {
			return 0, 0, fmt.Errorf("%w: star needs nodes>=2, got %d", ErrBadSpec, n)
		}
		return n, n - 1, nil
	case "torus":
		if t.Rows < 3 || t.Cols < 3 {
			return 0, 0, fmt.Errorf("%w: torus needs rows,cols>=3, got %dx%d", ErrBadSpec, t.Rows, t.Cols)
		}
		nodes = int64(t.Rows) * int64(t.Cols)
		return nodes, 2 * nodes, nil
	default:
		return 0, 0, fmt.Errorf("%w: unknown topology kind %q", ErrBadSpec, t.Kind)
	}
}

// Spec is the canonical JSON description of one simulation request.
// Optional knobs use pointers so "absent" (paper default) and "zero"
// (the ablation regimes) stay distinguishable; Normalize resolves the
// defaults so equivalent requests share one canonical form and hence
// one cache key.
type Spec struct {
	// N is the population size; 0 selects the infinite-population
	// process. Ignored when Topology is set.
	N int `json:"n"`
	// Qualities are the option success probabilities η_j.
	Qualities []float64 `json:"qualities"`
	// Beta is the adoption probability on a good signal.
	Beta float64 `json:"beta"`
	// Alpha is the adoption probability on a bad signal; absent means
	// the paper's symmetric 1−β.
	Alpha *float64 `json:"alpha,omitempty"`
	// Mu is the exploration rate; absent means the theorem-maximal
	// δ²/6 default.
	Mu *float64 `json:"mu,omitempty"`
	// Engine is "aggregate" (default) or "agent".
	Engine string `json:"engine,omitempty"`
	// Steps is the horizon T.
	Steps int `json:"steps"`
	// Replications averages this many independent runs (default 1).
	// Replication r uses the seed experiment.SeedFor(Seed, r), so
	// replication 0 reproduces a direct core run with Seed.
	Replications int `json:"replications,omitempty"`
	// Seed drives all randomness.
	Seed uint64 `json:"seed"`
	// TraceEvery, when positive, records the trajectory of replication
	// 0 every k steps for the job's /trace stream.
	TraceEvery int `json:"trace_every,omitempty"`
	// Topology optionally restricts sampling to a deterministic graph.
	Topology *Topology `json:"topology,omitempty"`
	// Priority is the request's scheduling class: "interactive"
	// (default for /v1/simulate and /v1/jobs) or "batch" (default for
	// sweeps). Interactive work dequeues first and is the last to be
	// shed under brownout; batch work is shed first. Priority is a
	// scheduling hint, not part of the simulation's identity, so it is
	// excluded from the canonical hash — the same spec submitted at
	// both priorities shares one cache key and one single-flight.
	Priority string `json:"priority,omitempty"`
	// DrawOrder selects the draw-order contract version: absent or
	// "v1" is the frozen per-replication order (replication r seeds
	// experiment.SeedFor(Seed, r)); "v2" is the replication-block order
	// (lane r seeds rng.StripeSeed(Seed, r), each lane an independent
	// stream). The two contracts produce distinct — individually
	// reproducible — results, so the version is part of the canonical
	// hash; "v1" normalizes to absent so every pre-versioning cache key
	// and persisted report remains byte-identical.
	DrawOrder string `json:"draw_order,omitempty"`
}

// Normalize fills defaults in place (engine name, replication count)
// and canonicalizes explicit-default pointer fields to their absent
// form, so that equivalent specs hash identically: {"alpha": 1−β},
// {"mu": δ²/6}, {"engine": "aggregate"}, and {"replications": 1} all
// denote the same simulation as leaving the field out, and must share
// one cache key and one single-flight.
func (s *Spec) Normalize() {
	if s.Engine == "" {
		s.Engine = "aggregate"
	}
	if s.Replications == 0 {
		s.Replications = 1
	}
	// "v1" names the default contract explicitly; the absent form is
	// canonical (mirroring alpha/mu), keeping every pre-versioning
	// cache key byte-identical.
	if s.DrawOrder == "v1" {
		s.DrawOrder = ""
	}
	s.Alpha, s.Mu = canonicalAlphaMu(s.Beta, s.Alpha, s.Mu)
}

// canonicalAlphaMu maps explicitly spelled-out paper defaults back to
// nil. An explicit zero is NOT a default (it forces the ablation
// regimes via AlphaIsZero/MuIsZero), and comparison is exact: only a
// bit-identical restatement of the derived default denotes the same
// simulation.
func canonicalAlphaMu(beta float64, alpha, mu *float64) (*float64, *float64) {
	if alpha != nil && *alpha != 0 && *alpha == 1-beta {
		alpha = nil
	}
	if mu != nil && *mu != 0 {
		if d, ok := defaultMu(beta); ok && *mu == d {
			mu = nil
		}
	}
	return alpha, mu
}

// defaultMu mirrors core.Config's exploration-rate default: δ²/6
// (capped at 1) for 1/2 < β < 1, else the 0.05 fallback. ok is false
// when the default is undefined for beta.
func defaultMu(beta float64) (mu float64, ok bool) {
	if beta > 0.5 && beta < 1 {
		delta, err := regret.Delta(beta)
		if err != nil {
			return 0, false
		}
		mu, err = regret.MaxMu(delta)
		if err != nil {
			return 0, false
		}
		return mu, true
	}
	return 0.05, true
}

// Validate normalizes the spec and checks the serving limits plus
// every core-level constraint (β range, quality ranges, α/µ domains,
// topology validity) arithmetically — it never builds a graph or a
// group, so validation stays O(m) no matter how large a population or
// topology the request names. Admitted work is bounded two ways:
// Steps×Replications ≤ MaxSteps, and Steps×Replications×(per-step
// cost) + Replications×(per-replication setup) ≤ MaxWork, where the
// per-step cost is m (aggregate engine), N (agent engine), or the
// node count (topology), and the setup cost is the topology's edge
// count.
func (s *Spec) Validate() error {
	s.Normalize()
	// Bound each factor before multiplying so the product cannot
	// overflow past the admission check.
	if s.Steps <= 0 || s.Steps > MaxSteps {
		return fmt.Errorf("%w: steps=%d (want 1..%d)", ErrBadSpec, s.Steps, MaxSteps)
	}
	if s.Replications < 1 || s.Replications > MaxSteps {
		return fmt.Errorf("%w: replications=%d", ErrBadSpec, s.Replications)
	}
	horizon := int64(s.Steps) * int64(s.Replications)
	if horizon > MaxSteps {
		return fmt.Errorf("%w: steps×replications=%d exceeds limit %d", ErrBadSpec, horizon, MaxSteps)
	}
	if len(s.Qualities) > MaxOptions {
		return fmt.Errorf("%w: %d options exceeds limit %d", ErrBadSpec, len(s.Qualities), MaxOptions)
	}
	if s.N < 0 || s.N > MaxPopulation {
		return fmt.Errorf("%w: n=%d", ErrBadSpec, s.N)
	}
	if s.TraceEvery < 0 {
		return fmt.Errorf("%w: trace_every=%d", ErrBadSpec, s.TraceEvery)
	}
	if s.TraceEvery > 0 && s.Steps/s.TraceEvery > MaxTraceRows {
		return fmt.Errorf("%w: trace would record %d rows, limit %d",
			ErrBadSpec, s.Steps/s.TraceEvery, MaxTraceRows)
	}
	switch s.Engine {
	case "aggregate", "agent":
	default:
		return fmt.Errorf("%w: engine %q (want \"aggregate\" or \"agent\")", ErrBadSpec, s.Engine)
	}
	// Post-Normalize "v1" is already folded to "". The admission-work
	// arithmetic below is version-independent: v2 runs the same
	// simulated operations, just batched into lanes (a canceled v2
	// block, like a v1 replication, stops at its next step).
	switch s.DrawOrder {
	case "", "v2":
	default:
		return fmt.Errorf("%w: draw_order %q (want \"v1\" or \"v2\")", ErrBadSpec, s.DrawOrder)
	}
	switch s.Priority {
	case "", ClassInteractive, ClassBatch:
	default:
		return fmt.Errorf("%w: priority %q (want %q or %q)", ErrBadSpec, s.Priority, ClassInteractive, ClassBatch)
	}
	// buildCost charges the topology graph's O(edges) construction —
	// which for a dense (complete) graph dwarfs the O(nodes) step cost
	// — once per replication: a conservative bound, since the
	// scheduler builds the graph once per job and every replication
	// shares it.
	var buildCost int64
	if s.Topology != nil {
		// Per-dimension bounds first: Rows×Cols could overflow before
		// the size computation.
		t := s.Topology
		if t.Nodes < 0 || t.Nodes > MaxPopulation ||
			t.Rows < 0 || t.Rows > MaxPopulation ||
			t.Cols < 0 || t.Cols > MaxPopulation {
			return fmt.Errorf("%w: topology dimensions %+v out of range", ErrBadSpec, *t)
		}
		nodes, edges, err := t.size()
		if err != nil {
			return err
		}
		if nodes > MaxPopulation {
			return fmt.Errorf("%w: topology has %d nodes, limit %d", ErrBadSpec, nodes, MaxPopulation)
		}
		if edges > MaxTopologyEdges {
			return fmt.Errorf("%w: topology %q would materialize %d edges, limit %d",
				ErrBadSpec, t.Kind, edges, MaxTopologyEdges)
		}
		buildCost = edges
	} else if s.Engine == "agent" {
		// The agent engine materializes O(N) state, not just O(N)
		// step cost, so it gets a memory bound on top of MaxWork.
		if s.N > MaxAgentPopulation {
			return fmt.Errorf("%w: n=%d exceeds agent-engine limit %d (use the aggregate engine for large N)",
				ErrBadSpec, s.N, MaxAgentPopulation)
		}
	}
	// Replications ≤ MaxSteps (5·10⁷) and buildCost ≤ MaxTopologyEdges
	// (10⁶), so the sum stays well inside int64.
	perStep := s.perStepCost()
	if work := horizon*perStep + int64(s.Replications)*buildCost; work > MaxWork {
		return fmt.Errorf("%w: total work %d (steps×replications×per-step cost %d + per-replication setup) exceeds limit %d",
			ErrBadSpec, work, perStep, int64(MaxWork))
	}
	if err := s.coreConfig(s.Seed).Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return nil
}

// perStepCost is the dominant operation count of one simulated step —
// m for the aggregate engine, N for the agent engine, the node count
// for a topology — the same arithmetic Validate charges admission
// for. Each factor is bounded by MaxPopulation (10⁸), so
// horizon×perStepCost fits int64. Topology errors are ignored here
// (Validate reports them); an invalid topology costs at least 1.
func (s *Spec) perStepCost() int64 {
	perStep := max(int64(len(s.Qualities)), 1)
	if s.Topology != nil {
		if nodes, _, err := s.Topology.size(); err == nil {
			perStep = max(perStep, nodes)
		}
	} else if s.Engine == "agent" {
		perStep = max(perStep, int64(s.N))
	}
	return perStep
}

// class resolves the spec's effective scheduling class: the explicit
// Priority field, defaulting to interactive (sweeps default to batch
// in SweepSpec).
func (s *Spec) class() string {
	if s.Priority == ClassBatch {
		return ClassBatch
	}
	return ClassInteractive
}

// engineName is the observability name of the engine this spec
// actually runs: the topology and infinite-population selections
// override the Engine field. The values match the step-cost
// profiler's vocabulary (aggregate|agent|infinite|network).
func (s *Spec) engineName() string {
	if s.Topology != nil {
		return "network"
	}
	if s.N == 0 {
		return "infinite"
	}
	return s.Engine
}

// drawOrderVersion is the spec's draw-order contract version as a
// label value ("" normalizes to "v1").
func (s *Spec) drawOrderVersion() string {
	if s.DrawOrder == "v2" {
		return "v2"
	}
	return "v1"
}

// coreConfig maps the spec onto core.Config with the given seed. The
// topology graph is deliberately NOT attached here — Config.Validate
// on the result must stay allocation-light — so jobConfig builds it,
// once per job.
func (s *Spec) coreConfig(seed uint64) core.Config {
	cfg := core.Config{
		N:         s.N,
		Qualities: s.Qualities,
		Beta:      s.Beta,
		Seed:      seed,
	}
	if s.Alpha != nil {
		cfg.Alpha = *s.Alpha
		if *s.Alpha == 0 {
			cfg.AlphaIsZero = true
		}
	}
	if s.Mu != nil {
		cfg.Mu = *s.Mu
		if *s.Mu == 0 {
			cfg.MuIsZero = true
		}
	}
	if s.Engine == "agent" {
		cfg.Engine = core.EngineAgent
	}
	return cfg
}

// jobConfig is the family prototype a job runs on: coreConfig plus
// the topology graph (size-checked by Validate) when the spec names
// one. The graph is immutable, so every replication shares this one
// build.
func (s *Spec) jobConfig() (core.Config, error) {
	cfg := s.coreConfig(0)
	if s.Topology != nil {
		g, err := s.Topology.build()
		if err != nil {
			return core.Config{}, err
		}
		cfg.Network = g
	}
	return cfg, nil
}

// sweepVariant maps the spec's run axes onto an experiment.RunSweep
// variant.
func (s *Spec) sweepVariant() experiment.SweepVariant {
	return experiment.SweepVariant{
		N:            s.N,
		Engine:       s.engineKind(),
		Steps:        s.Steps,
		Replications: s.Replications,
		Seed:         s.Seed,
		DrawOrder:    s.DrawOrder,
	}
}

// Hash returns the canonical cache key: SHA-256 over the canonical
// JSON encoding of the normalized spec. encoding/json emits struct
// fields in declaration order with shortest-round-trip floats, so the
// encoding — and therefore the key — is deterministic.
func (s *Spec) Hash() (string, error) {
	s.Normalize()
	for _, q := range s.Qualities {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return "", fmt.Errorf("%w: non-finite quality %v", ErrBadSpec, q)
		}
	}
	// Priority is a scheduling hint: the same simulation at either
	// class must share one cache key, so it is cleared on a shallow
	// copy before encoding.
	canonical := *s
	canonical.Priority = ""
	b, err := json.Marshal(&canonical)
	if err != nil {
		return "", fmt.Errorf("service: hash spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
