// Package graph provides the social-network substrate for the paper's
// future-work extension ("individuals can only sample from their
// neighbors"). It implements simple undirected graphs with the standard
// topology generators used in the social-networks literature: complete,
// ring, 2-D torus grid, star, Erdős–Rényi G(n,p), Watts–Strogatz small
// world, and Barabási–Albert preferential attachment.
package graph

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/rng"
)

// ErrBadParam reports invalid generator parameters.
var ErrBadParam = errors.New("graph: invalid parameter")

// Graph is a simple undirected graph over nodes 0..N−1 stored as
// adjacency lists. Construct with a generator or NewFromEdges.
type Graph struct {
	adj [][]int
}

// NewFromEdges builds a graph on n nodes from an edge list. Self-loops
// and duplicate edges are rejected.
func NewFromEdges(n int, edges [][2]int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParam, n)
	}
	g := &Graph{adj: make([][]int, n)}
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("%w: edge (%d,%d) out of range", ErrBadParam, u, v)
		}
		if u == v {
			return nil, fmt.Errorf("%w: self-loop at %d", ErrBadParam, u)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("%w: duplicate edge (%d,%d)", ErrBadParam, u, v)
		}
		seen[key] = true
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
	}
	return g, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// Degree returns node i's degree.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// Neighbors returns node i's adjacency list. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(i int) []int { return g.adj[i] }

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// AvgDegree returns the mean degree.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.Edges()) / float64(len(g.adj))
}

// IsConnected reports whether the graph is connected (true for n = 1).
func (g *Graph) IsConnected() bool {
	n := len(g.adj)
	if n == 0 {
		return false
	}
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	queue = append(queue, 0)
	visited[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if !visited[v] {
				visited[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == n
}

// Diameter returns the longest shortest-path length, or -1 when the
// graph is disconnected. It runs BFS from every node (O(n·(n+e))).
func (g *Graph) Diameter() int {
	n := len(g.adj)
	diameter := 0
	distBuf := make([]int, n)
	for src := 0; src < n; src++ {
		for i := range distBuf {
			distBuf[i] = -1
		}
		distBuf[src] = 0
		queue := []int{src}
		reached := 1
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if distBuf[v] == -1 {
					distBuf[v] = distBuf[u] + 1
					reached++
					if distBuf[v] > diameter {
						diameter = distBuf[v]
					}
					queue = append(queue, v)
				}
			}
		}
		if reached != n {
			return -1
		}
	}
	return diameter
}

// Complete returns K_n.
func Complete(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParam, n)
	}
	g := &Graph{adj: make([][]int, n)}
	for u := 0; u < n; u++ {
		g.adj[u] = make([]int, 0, n-1)
		for v := 0; v < n; v++ {
			if v != u {
				g.adj[u] = append(g.adj[u], v)
			}
		}
	}
	return g, nil
}

// Ring returns the n-cycle (n ≥ 3).
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("%w: ring needs n>=3, got %d", ErrBadParam, n)
	}
	edges := make([][2]int, 0, n)
	for u := 0; u < n; u++ {
		edges = append(edges, [2]int{u, (u + 1) % n})
	}
	return NewFromEdges(n, edges)
}

// Star returns the star K_{1,n−1} with node 0 at the center (n ≥ 2).
func Star(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: star needs n>=2, got %d", ErrBadParam, n)
	}
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	return NewFromEdges(n, edges)
}

// Torus returns the rows×cols grid with wrap-around edges (both ≥ 3 so
// the graph stays simple).
func Torus(rows, cols int) (*Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("%w: torus needs rows,cols>=3, got %dx%d", ErrBadParam, rows, cols)
	}
	n := rows * cols
	edges := make([][2]int, 0, 2*n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			edges = append(edges,
				[2]int{id(r, c), id(r, (c+1)%cols)},
				[2]int{id(r, c), id((r+1)%rows, c)},
			)
		}
	}
	return NewFromEdges(n, edges)
}

// ErdosRenyi returns G(n, p): each of the n(n−1)/2 possible edges is
// present independently with probability p.
func ErdosRenyi(n int, p float64, r *rng.RNG) (*Graph, error) {
	if n <= 0 || p < 0 || p > 1 || r == nil {
		return nil, fmt.Errorf("%w: er n=%d p=%v", ErrBadParam, n, p)
	}
	g := &Graph{adj: make([][]int, n)}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bernoulli(p) {
				g.adj[u] = append(g.adj[u], v)
				g.adj[v] = append(g.adj[v], u)
			}
		}
	}
	return g, nil
}

// WattsStrogatz returns the small-world model: a ring lattice where
// every node connects to its k nearest neighbors on each side
// (so degree 2k), with each lattice edge rewired to a uniform random
// target with probability p (avoiding self-loops and duplicates; a
// rewire that cannot find a valid target keeps the original edge).
func WattsStrogatz(n, k int, p float64, r *rng.RNG) (*Graph, error) {
	if n <= 0 || k < 1 || 2*k >= n || p < 0 || p > 1 || r == nil {
		return nil, fmt.Errorf("%w: ws n=%d k=%d p=%v", ErrBadParam, n, k, p)
	}
	// Edge set as a map for duplicate checks during rewiring.
	type edge [2]int
	norm := func(u, v int) edge { return edge{min(u, v), max(u, v)} }
	present := make(map[edge]bool, n*k)
	edges := make([]edge, 0, n*k)
	for u := 0; u < n; u++ {
		for d := 1; d <= k; d++ {
			e := norm(u, (u+d)%n)
			if !present[e] {
				present[e] = true
				edges = append(edges, e)
			}
		}
	}
	for i, e := range edges {
		if !r.Bernoulli(p) {
			continue
		}
		u := e[0]
		// Try a handful of random targets; keep the edge on failure.
		for attempt := 0; attempt < 32; attempt++ {
			w := r.Intn(n)
			if w == u {
				continue
			}
			ne := norm(u, w)
			if present[ne] {
				continue
			}
			delete(present, e)
			present[ne] = true
			edges[i] = ne
			break
		}
	}
	pairs := make([][2]int, len(edges))
	for i, e := range edges {
		pairs[i] = [2]int{e[0], e[1]}
	}
	return NewFromEdges(n, pairs)
}

// BarabasiAlbert returns the preferential-attachment model: starting
// from a complete graph on m0 = attach nodes, each new node attaches to
// `attach` distinct existing nodes chosen proportionally to degree.
func BarabasiAlbert(n, attach int, r *rng.RNG) (*Graph, error) {
	if attach < 1 || n <= attach || r == nil {
		return nil, fmt.Errorf("%w: ba n=%d attach=%d", ErrBadParam, n, attach)
	}
	g := &Graph{adj: make([][]int, n)}
	// Repeated-endpoint list: each edge contributes both endpoints, so
	// sampling uniformly from it is degree-proportional sampling.
	endpoints := make([]int, 0, 2*attach*n)
	addEdge := func(u, v int) {
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
		endpoints = append(endpoints, u, v)
	}
	for u := 0; u < attach; u++ {
		for v := u + 1; v < attach; v++ {
			addEdge(u, v)
		}
	}
	if attach == 1 {
		// Seed a single edge so the endpoint list is non-empty.
		addEdge(0, 1)
	}
	start := attach
	if attach == 1 {
		start = 2
	}
	// chosen keeps the targets in draw order, so one seed builds one
	// graph (ranging over a map would follow Go's randomized order).
	chosen := make([]int, 0, attach)
	for u := start; u < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < attach {
			v := endpoints[r.Intn(len(endpoints))]
			if v != u && !slices.Contains(chosen, v) {
				chosen = append(chosen, v)
			}
		}
		for _, v := range chosen {
			addEdge(u, v)
		}
	}
	return g, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
