package env

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewIIDBernoulliValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewIIDBernoulli(nil); !errors.Is(err, ErrBadQualities) {
		t.Error("empty qualities accepted")
	}
	if _, err := NewIIDBernoulli([]float64{0.5, 1.2}); !errors.Is(err, ErrBadQualities) {
		t.Error("eta > 1 accepted")
	}
	if _, err := NewIIDBernoulli([]float64{-0.1}); !errors.Is(err, ErrBadQualities) {
		t.Error("negative eta accepted")
	}
	e, err := NewIIDBernoulli([]float64{0.9, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if e.Options() != 2 {
		t.Errorf("Options = %d, want 2", e.Options())
	}
}

func TestIIDBernoulliFrequencies(t *testing.T) {
	t.Parallel()

	qualities := []float64{0.9, 0.5, 0.1, 0, 1}
	e, err := NewIIDBernoulli(qualities)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	const steps = 100000
	sums := make([]float64, len(qualities))
	dst := make([]float64, len(qualities))
	for i := 0; i < steps; i++ {
		if err := e.Step(r, dst); err != nil {
			t.Fatal(err)
		}
		for j, v := range dst {
			if v != 0 && v != 1 {
				t.Fatalf("non-binary signal %v", v)
			}
			sums[j] += v
		}
	}
	for j, q := range qualities {
		got := sums[j] / steps
		if math.Abs(got-q) > 0.01 {
			t.Errorf("option %d frequency %v, want ~%v", j, got, q)
		}
	}
}

func TestIIDBernoulliQualitiesCopied(t *testing.T) {
	t.Parallel()

	in := []float64{0.7, 0.3}
	e, err := NewIIDBernoulli(in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = 0 // caller mutation must not leak in
	q := e.Qualities()
	if q[0] != 0.7 {
		t.Error("constructor did not copy qualities")
	}
	q[1] = 0 // returned slice mutation must not leak back
	if e.Qualities()[1] != 0.3 {
		t.Error("Qualities did not return a copy")
	}
}

func TestIIDBernoulliStepDstLength(t *testing.T) {
	t.Parallel()

	e, err := NewIIDBernoulli([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(rng.New(1), make([]float64, 3)); !errors.Is(err, ErrBadParam) {
		t.Error("wrong dst length accepted")
	}
}

func TestExactlyOneGood(t *testing.T) {
	t.Parallel()

	if _, err := NewExactlyOneGood(1.5); !errors.Is(err, ErrBadParam) {
		t.Error("p > 1 accepted")
	}
	e, err := NewExactlyOneGood(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Qualities(); got[0] != 0.7 || math.Abs(got[1]-0.3) > 1e-12 {
		t.Errorf("Qualities = %v", got)
	}
	r := rng.New(2)
	dst := make([]float64, 2)
	const steps = 100000
	ones := 0.0
	for i := 0; i < steps; i++ {
		if err := e.Step(r, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0]+dst[1] != 1 {
			t.Fatalf("not exactly one good: %v", dst)
		}
		ones += dst[0]
	}
	if got := ones / steps; math.Abs(got-0.7) > 0.01 {
		t.Errorf("option 1 good frequency %v, want ~0.7", got)
	}
}

func TestDriftingStaysBounded(t *testing.T) {
	t.Parallel()

	if _, err := NewDrifting([]float64{0.5}, -1, 0.1, 0.9); !errors.Is(err, ErrBadParam) {
		t.Error("negative sigma accepted")
	}
	if _, err := NewDrifting([]float64{0.5}, 0.1, 0.9, 0.1); !errors.Is(err, ErrBadParam) {
		t.Error("inverted bounds accepted")
	}
	e, err := NewDrifting([]float64{0.5, 0.3}, 0.05, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	dst := make([]float64, 2)
	for i := 0; i < 10000; i++ {
		if err := e.Step(r, dst); err != nil {
			t.Fatal(err)
		}
		for j, q := range e.Qualities() {
			if q < 0.1-1e-12 || q > 0.9+1e-12 {
				t.Fatalf("step %d: quality[%d]=%v escaped [0.1,0.9]", i, j, q)
			}
		}
	}
}

func TestDriftingActuallyMoves(t *testing.T) {
	t.Parallel()

	e, err := NewDrifting([]float64{0.5}, 0.05, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	dst := make([]float64, 1)
	moved := false
	for i := 0; i < 100; i++ {
		if err := e.Step(r, dst); err != nil {
			t.Fatal(err)
		}
		if math.Abs(e.Qualities()[0]-0.5) > 0.01 {
			moved = true
		}
	}
	if !moved {
		t.Error("drifting qualities never moved")
	}
}

func TestSwitchingRotates(t *testing.T) {
	t.Parallel()

	if _, err := NewSwitching([]float64{0.5}, 0); !errors.Is(err, ErrBadParam) {
		t.Error("zero period accepted")
	}
	e, err := NewSwitching([]float64{0.9, 0.5, 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	dst := make([]float64, 3)
	// Steps 1,2 use the original order; the rotation happens entering
	// step 3.
	for i := 0; i < 2; i++ {
		if err := e.Step(r, dst); err != nil {
			t.Fatal(err)
		}
	}
	if q := e.Qualities(); q[0] != 0.9 {
		t.Fatalf("rotated too early: %v", q)
	}
	if err := e.Step(r, dst); err != nil {
		t.Fatal(err)
	}
	if q := e.Qualities(); q[0] != 0.1 || q[1] != 0.9 || q[2] != 0.5 {
		t.Fatalf("after period: qualities = %v, want rotated [0.1 0.9 0.5]", q)
	}
}

func TestScripted(t *testing.T) {
	t.Parallel()

	if _, err := NewScripted(nil); !errors.Is(err, ErrBadParam) {
		t.Error("empty script accepted")
	}
	if _, err := NewScripted([][]float64{{1, 0}, {1}}); !errors.Is(err, ErrBadParam) {
		t.Error("ragged script accepted")
	}
	if _, err := NewScripted([][]float64{{0.5, 0}}); !errors.Is(err, ErrBadParam) {
		t.Error("non-binary script accepted")
	}
	script := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	e, err := NewScripted(script)
	if err != nil {
		t.Fatal(err)
	}
	if q := e.Qualities(); math.Abs(q[0]-2.0/3) > 1e-12 || math.Abs(q[1]-2.0/3) > 1e-12 {
		t.Errorf("Qualities = %v", q)
	}
	dst := make([]float64, 2)
	for cycle := 0; cycle < 2; cycle++ {
		for step := 0; step < 3; step++ {
			if err := e.Step(nil, dst); err != nil {
				t.Fatal(err)
			}
			if dst[0] != script[step][0] || dst[1] != script[step][1] {
				t.Fatalf("cycle %d step %d: got %v, want %v", cycle, step, dst, script[step])
			}
		}
	}
}

func TestRecorder(t *testing.T) {
	t.Parallel()

	if _, err := NewRecorder(nil); !errors.Is(err, ErrBadParam) {
		t.Error("nil inner accepted")
	}
	inner, err := NewIIDBernoulli([]float64{0.6, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecorder(inner)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Options() != 2 {
		t.Errorf("Options = %d", rec.Options())
	}
	r := rng.New(7)
	dst := make([]float64, 2)
	const steps = 50
	for i := 0; i < steps; i++ {
		if err := rec.Step(r, dst); err != nil {
			t.Fatal(err)
		}
	}
	hist := rec.History()
	if len(hist) != steps {
		t.Fatalf("history length %d, want %d", len(hist), steps)
	}
	// Replaying the history through Scripted must reproduce it.
	replay, err := NewScripted(hist)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if err := replay.Step(nil, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0] != hist[i][0] || dst[1] != hist[i][1] {
			t.Fatalf("replay diverged at step %d", i)
		}
	}
}

func TestReflectProperties(t *testing.T) {
	t.Parallel()

	f := func(xRaw int32, loRaw, span uint8) bool {
		lo := float64(loRaw) / 512
		width := float64(span)/512 + 0.01
		hi := lo + width
		x := float64(xRaw) / 1000
		y := reflect(x, lo, hi)
		return y >= lo-1e-9 && y <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// In-range values are unchanged.
	if got := reflect(0.5, 0, 1); got != 0.5 {
		t.Errorf("reflect(0.5) = %v", got)
	}
	// Single bounce below and above.
	if got := reflect(-0.2, 0, 1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("reflect(-0.2) = %v, want 0.2", got)
	}
	if got := reflect(1.3, 0, 1); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("reflect(1.3) = %v, want 0.7", got)
	}
}
