package graph

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// checkSimple verifies the graph is simple (no self-loops, no duplicate
// neighbors) and symmetric.
func checkSimple(t *testing.T, g *Graph) {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		seen := make(map[int]bool)
		for _, v := range g.Neighbors(u) {
			if v == u {
				t.Fatalf("self-loop at %d", u)
			}
			if seen[v] {
				t.Fatalf("duplicate edge %d-%d", u, v)
			}
			seen[v] = true
			found := false
			for _, w := range g.Neighbors(v) {
				if w == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric edge %d-%d", u, v)
			}
		}
	}
}

func TestNewFromEdges(t *testing.T) {
	t.Parallel()

	if _, err := NewFromEdges(0, nil); !errors.Is(err, ErrBadParam) {
		t.Error("n=0 accepted")
	}
	if _, err := NewFromEdges(3, [][2]int{{0, 3}}); !errors.Is(err, ErrBadParam) {
		t.Error("out-of-range edge accepted")
	}
	if _, err := NewFromEdges(3, [][2]int{{1, 1}}); !errors.Is(err, ErrBadParam) {
		t.Error("self-loop accepted")
	}
	if _, err := NewFromEdges(3, [][2]int{{0, 1}, {1, 0}}); !errors.Is(err, ErrBadParam) {
		t.Error("duplicate edge accepted")
	}
	g, err := NewFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	if g.Edges() != 2 || g.Degree(1) != 2 {
		t.Errorf("edges=%d deg(1)=%d", g.Edges(), g.Degree(1))
	}
}

func TestComplete(t *testing.T) {
	t.Parallel()

	if _, err := Complete(0); !errors.Is(err, ErrBadParam) {
		t.Error("n=0 accepted")
	}
	g, err := Complete(10)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	if g.Edges() != 45 {
		t.Errorf("K10 edges = %d, want 45", g.Edges())
	}
	if !g.IsConnected() {
		t.Error("K10 not connected")
	}
	if d := g.Diameter(); d != 1 {
		t.Errorf("K10 diameter = %d, want 1", d)
	}
	for u := 0; u < 10; u++ {
		if g.Degree(u) != 9 {
			t.Fatalf("deg(%d)=%d", u, g.Degree(u))
		}
	}
}

func TestRing(t *testing.T) {
	t.Parallel()

	if _, err := Ring(2); !errors.Is(err, ErrBadParam) {
		t.Error("n=2 accepted")
	}
	g, err := Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	if g.Edges() != 8 || !g.IsConnected() {
		t.Errorf("ring edges=%d connected=%v", g.Edges(), g.IsConnected())
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("C8 diameter = %d, want 4", d)
	}
}

func TestStar(t *testing.T) {
	t.Parallel()

	if _, err := Star(1); !errors.Is(err, ErrBadParam) {
		t.Error("n=1 accepted")
	}
	g, err := Star(6)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	if g.Degree(0) != 5 {
		t.Errorf("hub degree = %d", g.Degree(0))
	}
	for v := 1; v < 6; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leaf degree = %d", g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 2 {
		t.Errorf("star diameter = %d, want 2", d)
	}
}

func TestTorus(t *testing.T) {
	t.Parallel()

	if _, err := Torus(2, 5); !errors.Is(err, ErrBadParam) {
		t.Error("rows=2 accepted")
	}
	g, err := Torus(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	if g.N() != 20 {
		t.Errorf("N = %d", g.N())
	}
	if !g.IsConnected() {
		t.Error("torus not connected")
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("torus degree(%d) = %d, want 4", u, g.Degree(u))
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	t.Parallel()

	if _, err := ErdosRenyi(10, 0.5, nil); !errors.Is(err, ErrBadParam) {
		t.Error("nil rng accepted")
	}
	if _, err := ErdosRenyi(10, 1.5, rng.New(1)); !errors.Is(err, ErrBadParam) {
		t.Error("p>1 accepted")
	}
	g, err := ErdosRenyi(200, 0.1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	wantEdges := 0.1 * 200 * 199 / 2
	if math.Abs(float64(g.Edges())-wantEdges) > 5*math.Sqrt(wantEdges) {
		t.Errorf("ER edges = %d, want ~%v", g.Edges(), wantEdges)
	}
	dense, err := ErdosRenyi(20, 1, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if dense.Edges() != 190 {
		t.Errorf("ER(p=1) edges = %d, want 190", dense.Edges())
	}
	empty, err := ErdosRenyi(20, 0, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Edges() != 0 {
		t.Errorf("ER(p=0) edges = %d", empty.Edges())
	}
}

func TestWattsStrogatz(t *testing.T) {
	t.Parallel()

	if _, err := WattsStrogatz(10, 5, 0.1, rng.New(1)); !errors.Is(err, ErrBadParam) {
		t.Error("2k>=n accepted")
	}
	if _, err := WattsStrogatz(10, 0, 0.1, rng.New(1)); !errors.Is(err, ErrBadParam) {
		t.Error("k=0 accepted")
	}
	// p=0 is the pure ring lattice: every node has degree exactly 2k.
	lattice, err := WattsStrogatz(50, 3, 0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, lattice)
	for u := 0; u < 50; u++ {
		if lattice.Degree(u) != 6 {
			t.Fatalf("lattice degree(%d) = %d, want 6", u, lattice.Degree(u))
		}
	}
	// Rewired: edge count is conserved.
	ws, err := WattsStrogatz(50, 3, 0.3, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, ws)
	if ws.Edges() != lattice.Edges() {
		t.Errorf("WS edges = %d, want %d (conserved)", ws.Edges(), lattice.Edges())
	}
	// Small-world effect: rewiring shrinks the diameter of a large ring
	// lattice.
	bigLattice, err := WattsStrogatz(400, 2, 0, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	bigWS, err := WattsStrogatz(400, 2, 0.2, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	dl, dw := bigLattice.Diameter(), bigWS.Diameter()
	if dw <= 0 || dl <= 0 {
		t.Skipf("disconnected instance (lattice %d, ws %d)", dl, dw)
	}
	if dw >= dl {
		t.Errorf("rewiring did not shrink diameter: lattice %d vs ws %d", dl, dw)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	t.Parallel()

	if _, err := BarabasiAlbert(5, 5, rng.New(1)); !errors.Is(err, ErrBadParam) {
		t.Error("n<=attach accepted")
	}
	if _, err := BarabasiAlbert(10, 0, rng.New(1)); !errors.Is(err, ErrBadParam) {
		t.Error("attach=0 accepted")
	}
	g, err := BarabasiAlbert(500, 3, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	if !g.IsConnected() {
		t.Error("BA graph disconnected")
	}
	// Preferential attachment produces hubs: the max degree should be
	// far above the mean.
	maxDeg := 0
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	if avg := g.AvgDegree(); float64(maxDeg) < 3*avg {
		t.Errorf("no hubs: max degree %d vs average %v", maxDeg, avg)
	}
}

func TestBarabasiAlbertAttachOne(t *testing.T) {
	t.Parallel()

	g, err := BarabasiAlbert(100, 1, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g)
	if !g.IsConnected() {
		t.Error("BA tree disconnected")
	}
	if g.Edges() != 99 {
		t.Errorf("attach=1 edges = %d, want 99 (tree)", g.Edges())
	}
}

// TestBarabasiAlbertDeterministic pins replay: two builds from one
// seed have identical neighbour lists, in order.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	t.Parallel()

	a, err := BarabasiAlbert(300, 3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BarabasiAlbert(300, 3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < a.N(); u++ {
		if !slices.Equal(a.Neighbors(u), b.Neighbors(u)) {
			t.Fatalf("node %d: neighbours %v, then %v from the same seed", u, a.Neighbors(u), b.Neighbors(u))
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	t.Parallel()

	g, err := NewFromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if d := g.Diameter(); d != -1 {
		t.Errorf("Diameter = %d, want -1", d)
	}
}

func TestQuickERSimple(t *testing.T) {
	t.Parallel()

	f := func(seed uint64, nRaw, pRaw uint8) bool {
		n := int(nRaw%40) + 2
		p := float64(pRaw) / 255
		g, err := ErdosRenyi(n, p, rng.New(seed))
		if err != nil {
			return false
		}
		for u := 0; u < g.N(); u++ {
			seen := make(map[int]bool)
			for _, v := range g.Neighbors(u) {
				if v == u || seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickWSEdgeConservation(t *testing.T) {
	t.Parallel()

	f := func(seed uint64, nRaw, kRaw, pRaw uint8) bool {
		n := int(nRaw%80) + 10
		k := int(kRaw%3) + 1
		if 2*k >= n {
			return true
		}
		p := float64(pRaw) / 255
		g, err := WattsStrogatz(n, k, p, rng.New(seed))
		if err != nil {
			return false
		}
		return g.Edges() == n*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBarabasiAlbert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BarabasiAlbert(1000, 3, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
