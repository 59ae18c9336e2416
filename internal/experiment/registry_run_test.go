package experiment

import (
	"math"
	"strings"
	"testing"
)

// TestAllDefaultExperimentsRun executes every registered experiment with
// its default options — the exact path cmd/repro takes — and checks
// structural invariants of the results. The defaults are sized to run
// in milliseconds each, so this doubles as a regression test for the
// full harness. Each experiment's "replay" input runs it a second time
// and requires every metric to match the first run bit for bit.
func TestAllDefaultExperimentsRun(t *testing.T) {
	t.Parallel()

	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			res, err := spec.Run()
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			if res.ID != spec.ID {
				t.Errorf("result ID %s, want %s", res.ID, spec.ID)
			}
			if res.Table == nil || len(res.Table.Rows) == 0 {
				t.Fatalf("%s produced an empty table", spec.ID)
			}
			if len(res.Metrics) == 0 {
				t.Errorf("%s produced no metrics", spec.ID)
			}
			var text strings.Builder
			if err := res.Table.Render(&text); err != nil {
				t.Fatalf("%s render: %v", spec.ID, err)
			}
			if !strings.Contains(text.String(), spec.ID) {
				t.Errorf("%s table title does not carry the experiment ID", spec.ID)
			}
			for _, row := range res.Table.Rows {
				for i, cell := range row {
					if cell == "" {
						t.Errorf("%s: empty cell in column %q", spec.ID, res.Table.Columns[i])
					}
					if strings.Contains(cell, "NaN") {
						t.Errorf("%s: NaN cell in column %q", spec.ID, res.Table.Columns[i])
					}
				}
			}
			t.Run("replay", func(t *testing.T) {
				again, err := spec.Run()
				if err != nil {
					t.Fatalf("%s replay: %v", spec.ID, err)
				}
				for key, v := range res.Metrics {
					if w, ok := again.Metrics[key]; !ok || math.Float64bits(w) != math.Float64bits(v) {
						t.Errorf("%s: metric %q = %v, then %v on replay", spec.ID, key, v, w)
					}
				}
				if len(again.Metrics) != len(res.Metrics) {
					t.Errorf("%s: %d metrics, then %d on replay", spec.ID, len(res.Metrics), len(again.Metrics))
				}
			})
		})
	}
}

// TestBoundComplianceAcrossDefaults asserts the theorem-bound "within"
// verdicts hold under the default options for the experiments that
// carry hard bounds.
func TestBoundComplianceAcrossDefaults(t *testing.T) {
	t.Parallel()

	e01, err := E01InfiniteRegret(DefaultE01Options())
	if err != nil {
		t.Fatal(err)
	}
	if e01.Metrics["violations"] != 0 {
		t.Errorf("E01 default run violated Theorem 4.3 in %v cells", e01.Metrics["violations"])
	}

	e03, err := E03FiniteRegret(DefaultE03Options())
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range e03.Metrics {
		if !strings.HasPrefix(key, "regret/") {
			continue
		}
		m := "2"
		if strings.Contains(key, "m=10") {
			m = "10"
		}
		if bound := e03.Metrics["bound/m="+m]; v > bound {
			t.Errorf("E03 %s = %v exceeds bound %v", key, v, bound)
		}
	}

	e06, err := E06Epochs(DefaultE06Options())
	if err != nil {
		t.Fatal(err)
	}
	if e06.Metrics["regret/one-epoch"] > e06.Metrics["bound"] {
		t.Error("E06 one-epoch regret exceeds 3*delta under defaults")
	}
	if e06.Metrics["regret/long"] > e06.Metrics["bound"] {
		t.Error("E06 long-horizon regret exceeds 3*delta under defaults")
	}
}
