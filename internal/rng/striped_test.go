package rng

import (
	"math"
	"testing"
)

func TestStripeSeedSchedule(t *testing.T) {
	// Deterministic and O(1): direct computation matches itself and
	// differs lane to lane.
	seen := map[uint64]int{}
	for lane := 0; lane < 256; lane++ {
		s := StripeSeed(12345, lane)
		if s != StripeSeed(12345, lane) {
			t.Fatalf("StripeSeed not deterministic at lane %d", lane)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("StripeSeed collision: lanes %d and %d", prev, lane)
		}
		seen[s] = lane
	}
	// The v2 lane schedule must not coincide with the v1 replication
	// schedule (SeedFor: seed + rep·γ, frozen) — that is what makes v2 a
	// genuinely distinct draw order even at one replication.
	const v1Gamma = 0x9e3779b97f4a7c15
	for _, base := range []uint64{0, 1, 42, 1 << 40, math.MaxUint64} {
		for lane := 0; lane < 64; lane++ {
			v1 := SeedFor(base, lane)
			if v1 != base+uint64(lane)*v1Gamma {
				t.Fatalf("SeedFor(%d, %d) = %d left the frozen v1 formula", base, lane, v1)
			}
			if StripeSeed(base, lane) == v1 {
				t.Fatalf("StripeSeed(%d, %d) collides with the v1 seed schedule", base, lane)
			}
		}
	}
}

func TestStripedReseedReplays(t *testing.T) {
	s := NewStriped(99, 3, 6)
	first := make([]uint64, s.Len())
	for i := range first {
		first[i] = s.Lane(i).Uint64()
	}
	s.Reseed(99, 3)
	for i := range first {
		if got := s.Lane(i).Uint64(); got != first[i] {
			t.Fatalf("lane %d after Reseed: got %d want %d", i, got, first[i])
		}
	}
	// Lane i of a block at lane0=3 is the same stream as lane i+3 of a
	// block at lane0=0: lane identity is global, not block-local.
	whole := NewStriped(99, 0, 9)
	for i := 0; i < 6; i++ {
		if got, want := whole.Lane(i+3).Uint64(), first[i]; got != want {
			t.Fatalf("global lane %d: got %d want %d", i+3, got, want)
		}
	}
}
