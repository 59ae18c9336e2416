package protocol

import (
	"errors"
	"testing"

	"repro/internal/env"
)

// TestEnvironmentFailurePropagates verifies the simulator surfaces an
// injected environment failure.
func TestEnvironmentFailurePropagates(t *testing.T) {
	t.Parallel()

	c := baseConfig(t)
	faulty, err := env.NewFaulty(c.Env, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Env = faulty
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil {
		t.Fatalf("first round failed: %v", err)
	}
	if err := s.Step(); !errors.Is(err, env.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
}
