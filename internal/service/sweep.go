package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
)

// MaxSweepVariants bounds the number of variants one sweep may carry.
// Together with the per-variant MaxWork bound it keeps the summed
// admission arithmetic far inside int64.
const MaxSweepVariants = 1024

// SweepFamily is the shared part of a sweep: the option qualities and
// adoption/exploration parameters that every variant reuses, resolved
// once per sweep job into the RunSweep family config.
type SweepFamily struct {
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
	// DrawOrder selects the draw-order contract version for every
	// variant of the sweep — a family axis, so a sweep job runs one
	// contract throughout. Absent or "v1" (normalized to absent, like
	// Spec) is the frozen per-replication order; "v2" is the
	// replication-block order.
	DrawOrder string `json:"draw_order,omitempty"`
}

// SweepVariant is one member of a sweep: the axes that vary across
// runs of the shared family. Topologies and traces are deliberately
// not sweepable — they are per-run state; submit those as single
// specs.
type SweepVariant struct {
	// N is the population size; 0 selects the infinite-population
	// process.
	N int `json:"n"`
	// Engine is "aggregate" (default) or "agent".
	Engine string `json:"engine,omitempty"`
	// Steps is the horizon T.
	Steps int `json:"steps"`
	// Replications averages this many independent runs (default 1).
	Replications int `json:"replications,omitempty"`
	// Seed drives the variant's randomness.
	Seed uint64 `json:"seed"`
}

// SweepSpec is the canonical JSON description of one batched sweep:
// a family plus the variants to run against it. Like Spec it
// normalizes to a canonical form and hashes deterministically, and
// each variant maps onto the single Spec that would compute the same
// result — so per-variant results share the single-spec result cache.
type SweepSpec struct {
	Family   SweepFamily    `json:"family"`
	Variants []SweepVariant `json:"variants"`
	// Priority is the sweep's scheduling class, defaulting to "batch"
	// (bulk work sheds before interactive traffic under brownout).
	// Like Spec.Priority it is a scheduling hint excluded from the
	// canonical hash.
	Priority string `json:"priority,omitempty"`
}

// Normalize fills defaults and canonicalizes explicit-default family
// pointers, mirroring Spec.Normalize, so equivalent sweeps hash
// identically.
func (s *SweepSpec) Normalize() {
	s.Family.Alpha, s.Family.Mu = canonicalAlphaMu(s.Family.Beta, s.Family.Alpha, s.Family.Mu)
	if s.Family.DrawOrder == "v1" {
		s.Family.DrawOrder = ""
	}
	for i := range s.Variants {
		if s.Variants[i].Engine == "" {
			s.Variants[i].Engine = "aggregate"
		}
		if s.Variants[i].Replications == 0 {
			s.Variants[i].Replications = 1
		}
	}
}

// variantSpec maps variant i onto the equivalent single-run Spec; its
// hash is the variant's result-cache key.
func (s *SweepSpec) variantSpec(i int) Spec {
	v := s.Variants[i]
	return Spec{
		N:            v.N,
		Qualities:    s.Family.Qualities,
		Beta:         s.Family.Beta,
		Alpha:        s.Family.Alpha,
		Mu:           s.Family.Mu,
		Engine:       v.Engine,
		Steps:        v.Steps,
		Replications: v.Replications,
		Seed:         v.Seed,
		DrawOrder:    s.Family.DrawOrder,
	}
}

// familyConfig maps the family onto the core.Config prototype the
// sweep driver resolves once per batch.
func (s *SweepSpec) familyConfig() core.Config {
	spec := s.variantSpec(0)
	return spec.coreConfig(0)
}

// Validate normalizes the sweep and checks every serving limit: each
// variant must pass the full single-spec validation, the variant count
// is bounded, and — the sweep's admission decision — the per-variant
// work charges sum to at most MaxWork. Each summand is already
// individually bounded by MaxWork (10¹⁰) and there are at most
// MaxSweepVariants (2¹⁰) of them, so the int64 sum cannot overflow
// even before this check rejects it.
func (s *SweepSpec) Validate() error {
	s.Normalize()
	if len(s.Variants) == 0 {
		return fmt.Errorf("%w: sweep has no variants", ErrBadSpec)
	}
	if len(s.Variants) > MaxSweepVariants {
		return fmt.Errorf("%w: sweep has %d variants, limit %d", ErrBadSpec, len(s.Variants), MaxSweepVariants)
	}
	switch s.Priority {
	case "", ClassInteractive, ClassBatch:
	default:
		return fmt.Errorf("%w: priority %q (want %q or %q)", ErrBadSpec, s.Priority, ClassInteractive, ClassBatch)
	}
	var total int64
	for i := range s.Variants {
		spec := s.variantSpec(i)
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("variant %d: %w", i, err)
		}
		work := int64(spec.Steps) * int64(spec.Replications) * spec.perStepCost()
		if total > math.MaxInt64-work {
			// Unreachable under the bounds above; guards refactors.
			return fmt.Errorf("%w: summed sweep work overflows", ErrBadSpec)
		}
		total += work
		if total > MaxWork {
			return fmt.Errorf("%w: summed sweep work %d (through variant %d) exceeds limit %d",
				ErrBadSpec, total, i, int64(MaxWork))
		}
	}
	return nil
}

// Hash returns the sweep's canonical cache key: SHA-256 over the
// canonical JSON encoding of the normalized sweep, exactly like
// Spec.Hash.
func (s *SweepSpec) Hash() (string, error) {
	s.Normalize()
	for _, q := range s.Family.Qualities {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return "", fmt.Errorf("%w: non-finite quality %v", ErrBadSpec, q)
		}
	}
	canonical := *s
	canonical.Priority = ""
	b, err := json.Marshal(&canonical)
	if err != nil {
		return "", fmt.Errorf("service: hash sweep: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// class resolves the sweep's effective scheduling class: the explicit
// Priority field, defaulting to batch.
func (s *SweepSpec) class() string {
	if s.Priority == ClassInteractive {
		return ClassInteractive
	}
	return ClassBatch
}

// variantHashes returns the single-spec cache key of every variant.
func (s *SweepSpec) variantHashes() ([]string, error) {
	hashes := make([]string, len(s.Variants))
	for i := range s.Variants {
		spec := s.variantSpec(i)
		h, err := spec.Hash()
		if err != nil {
			return nil, err
		}
		hashes[i] = h
	}
	return hashes, nil
}

// engineKind maps the spec's engine name onto the core enum.
func (s *Spec) engineKind() core.EngineKind {
	if s.Engine == "agent" {
		return core.EngineAgent
	}
	return core.EngineAggregate
}
