package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"

	"repro/internal/service"
)

// Snapshot shape: snapSweeps sweeps of snapVariants variants each, so
// the warm-start store holds snapSweeps×snapVariants records.
const (
	snapSweeps   = 64
	snapVariants = service.MaxSweepVariants
	snapRecords  = snapSweeps * snapVariants
)

// Request kinds.
const (
	kindSimulate = iota // POST /v1/simulate
	kindJob             // POST /v1/jobs, then GET /v1/jobs/{id}/trace to EOF
	kindSweep           // POST /v1/sweep
)

// op is one generated request and what its response must say.
type op struct {
	kind int
	body []byte
	// hashes are the expected spec_hash values: one for a simulate or
	// job op, one per variant for a sweep op.
	hashes    []string
	sweepHash string
	// spec is the op's spec (simulate, job) and sweep its sweep spec;
	// the recompute check and the traced run's engine probe read them.
	spec  *service.Spec
	sweep *service.SweepSpec
	// snap is the snapshot record a hits op repeats (-1 otherwise).
	snap int
	// traceRows is how many NDJSON rows a job op's trace must stream.
	traceRows int
}

// stream seeds an independent generator for one purpose and index, so
// op i is a pure function of (seed, purpose, i) however many ops a run
// gets through.
func stream(seed uint64, purpose, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, purpose<<48^i))
}

const (
	purposeSnapshot = iota + 1
	purposeHitsKeys
	purposeCold
	purposeSweep
	purposeWarm
	purposeProbe
)

// qualities draws m option qualities with a clear best option.
func qualities(r *rand.Rand, m int) []float64 {
	q := make([]float64, m)
	q[0] = 0.7 + 0.25*r.Float64()
	for j := 1; j < m; j++ {
		q[j] = 0.1 + (q[0]-0.2)*r.Float64()
	}
	return q
}

func orderName(drawOrder string) string {
	if drawOrder == "v2" {
		return "v2"
	}
	return "v1"
}

// specOp finishes a simulate or job op around spec.
func specOp(kind int, spec service.Spec) (*op, error) {
	body, err := json.Marshal(&spec)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	o := &op{kind: kind, body: body, hashes: []string{hash}, spec: &spec, snap: -1}
	if spec.TraceEvery > 0 {
		o.traceRows = spec.Steps / spec.TraceEvery
	}
	return o, nil
}

// variantSpec is the single spec a sweep variant is cached under; the
// service derives the same spec for the same variant.
func variantSpec(sw *service.SweepSpec, i int) service.Spec {
	v := sw.Variants[i]
	return service.Spec{
		N:            v.N,
		Qualities:    sw.Family.Qualities,
		Beta:         sw.Family.Beta,
		Alpha:        sw.Family.Alpha,
		Mu:           sw.Family.Mu,
		Engine:       v.Engine,
		Steps:        v.Steps,
		Replications: v.Replications,
		Seed:         v.Seed,
		DrawOrder:    sw.Family.DrawOrder,
	}
}

// sweepOp finishes a sweep op around sw.
func sweepOp(sw service.SweepSpec) (*op, error) {
	body, err := json.Marshal(&sw)
	if err != nil {
		return nil, err
	}
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	hash, err := sw.Hash()
	if err != nil {
		return nil, err
	}
	o := &op{kind: kindSweep, body: body, sweepHash: hash, sweep: &sw, snap: -1}
	for i := range sw.Variants {
		spec := variantSpec(&sw, i)
		h, err := spec.Hash()
		if err != nil {
			return nil, err
		}
		o.hashes = append(o.hashes, h)
	}
	return o, nil
}

// snapshotSweep is sweep k of the warm-start snapshot: one family per
// sweep, alternating draw order, with cheap aggregate, agent and
// infinite variants, so the records cost little to compute but have the
// shape of real reports.
func snapshotSweep(seed uint64, k int) service.SweepSpec {
	r := stream(seed, purposeSnapshot, uint64(k))
	sw := service.SweepSpec{Family: service.SweepFamily{
		Qualities: qualities(r, 2+r.IntN(3)),
		Beta:      0.6 + 0.3*r.Float64(),
	}}
	if k%2 == 1 {
		sw.Family.DrawOrder = "v2"
	}
	for i := 0; i < snapVariants; i++ {
		v := service.SweepVariant{Steps: 16 + r.IntN(49), Replications: 1 + r.IntN(2), Seed: r.Uint64()}
		switch u := r.Float64(); {
		case u < 0.6:
			v.N = int(math.Round(math.Pow(10, 2+3*r.Float64())))
		case u < 0.85:
			v.Engine = "agent"
			v.N = 10 + r.IntN(91)
		default: // infinite population
		}
		sw.Variants = append(sw.Variants, v)
	}
	return sw
}

// zipf draws ranks in [0, n) with P(rank k) ∝ 1/(k+1), the s = 1
// case math/rand's Zipf does not cover.
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for k := range z.cdf {
		sum += 1 / float64(k+1)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, r.Float64()), len(z.cdf)-1)
}

// hitsKeys draws n snapshot record indices for the hits workload:
// Zipf(1.0) popularity over a seeded permutation of the records, so
// the popular keys are spread over the whole segment. The popularity
// order depends on the seed alone, so the warm-up stream warms the
// keys the timed stream repeats.
func hitsKeys(seed, purpose uint64, n int) []int32 {
	perm := stream(seed, purposeHitsKeys, 0).Perm(snapRecords)
	r := stream(seed, purpose, 1)
	z := newZipf(snapRecords)
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(perm[z.draw(r)])
	}
	return keys
}

// coldDeck is one block of the cold mix, dealt in this fixed order:
// every 20 ops hold each shape exactly this often, and the heaviest
// shapes (agent v1, aggregate v2 with m=10) are spread out, so how
// often two of them queue behind each other does not depend on the
// seed. The seed draws every op's parameters and which op of each deck
// is the async job.
var coldDeck = []string{
	"agent", "agg", "ring", "inf", "agg2-m10", "agg", "ring2", "inf2", "agg2", "agg",
	"agent", "inf", "ring", "agg2-m10", "agg", "ring2", "agg2", "inf2", "agent", "agg",
}

// coldOp is op i of the cold workload: a fresh seed every time, its
// shape dealt from coldDeck. The shapes, per deck: aggregate v1
// (N=10⁴, m=3, T=2,000) ×5; agent v1 (N=10³, T=1,000) ×3; aggregate v2
// with 32 replications (N=10⁴, T=250), m=3 ×2 and m=10 ×2; infinite
// (8 replications, T=1,000) and ring topology (100 nodes, T=1,000), each
// v1 ×2 and v2 ×2.
func coldOp(seed, purpose uint64, i int) (*op, error) {
	shape := coldDeck[i%len(coldDeck)]
	async := i%len(coldDeck) == stream(seed, purpose, uint64(i/len(coldDeck))|1<<40).IntN(len(coldDeck))

	r := stream(seed, purpose, uint64(i))
	spec := service.Spec{Qualities: qualities(r, 3), Beta: 0.6 + 0.25*r.Float64(), Seed: r.Uint64()}
	switch shape {
	case "agg":
		spec.N, spec.Steps = 10_000, 2_000
	case "agent":
		spec.N, spec.Engine, spec.Steps = 1_000, "agent", 1_000
	case "agg2", "agg2-m10":
		spec.N, spec.Steps, spec.Replications, spec.DrawOrder = 10_000, 250, 32, "v2"
		if shape == "agg2-m10" {
			spec.Qualities = qualities(r, 10)
		}
	case "inf", "inf2":
		spec.Steps, spec.Replications = 1_000, 8
	case "ring", "ring2":
		spec.Topology = &service.Topology{Kind: "ring", Nodes: 100}
		spec.Steps = 1_000
	}
	if strings.HasSuffix(shape, "2") {
		spec.DrawOrder = "v2"
	}
	kind := kindSimulate
	if async {
		kind, spec.TraceEvery = kindJob, 50
	}
	return specOp(kind, spec)
}

// sweepOpAt is op i of the sweep workload: 16 fresh variants × 8
// replications, aggregate N=10³–10⁵ plus small-N agent, m=3, T=500,
// families alternating draw order v1 and v2. The horizon is short
// enough that a 30 s window holds over 1,000 sweeps on two vCPUs. Every
// sweep covers the same N ranges, one draw in each stratum (12
// log-uniform aggregate strata, 4 agent strata of 20 nodes), so sweeps
// cost about the same and the latency tail is the daemon's rather than
// that of the sample of sweeps a seed happens to draw.
func sweepOpAt(seed, purpose uint64, i int) (*op, error) {
	r := stream(seed, purpose, uint64(i))
	sw := service.SweepSpec{Family: service.SweepFamily{Qualities: qualities(r, 3), Beta: 0.6 + 0.25*r.Float64()}}
	if i%2 == 1 {
		sw.Family.DrawOrder = "v2"
	}
	for v := 0; v < 16; v++ {
		sv := service.SweepVariant{Steps: 500, Replications: 8, Seed: r.Uint64()}
		if k := v / 4; v%4 == 3 {
			sv.Engine, sv.N = "agent", 20+20*k+r.IntN(21)
		} else {
			j := 3*k + v%4 // aggregate stratum 0..11
			sv.N = int(math.Round(math.Pow(10, 3+2*(float64(j)+r.Float64())/12)))
		}
		sw.Variants = append(sw.Variants, sv)
	}
	return sweepOp(sw)
}

// opSource hands out op i of a workload's stream, generating it on
// first use; hits ops come from the snapshot's precomputed requests.
type opSource struct {
	gen  func(i int) (*op, error)
	keys []int32
	snap *snapshot

	mu  sync.Mutex
	ops []*op
}

func (s *opSource) at(i int) (*op, error) {
	if s.keys != nil {
		return s.snap.ops[s.keys[i%len(s.keys)]], nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ops) <= i {
		o, err := s.gen(len(s.ops))
		if err != nil {
			return nil, fmt.Errorf("generate op %d: %w", len(s.ops), err)
		}
		s.ops = append(s.ops, o)
	}
	return s.ops[i], nil
}

// prepare generates the first n ops ahead of a timed window, so the
// window measures requests, not request generation.
func (s *opSource) prepare(n int) error {
	if s.keys != nil || n <= 0 {
		return nil
	}
	_, err := s.at(n - 1)
	return err
}
