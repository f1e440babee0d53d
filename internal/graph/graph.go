// Package graph provides the graph substrate for the paper's single-source
// shortest-path benchmark (§5, Figure 3): compact CSR graphs, synthetic
// generators (including a road-network surrogate for the California road
// graph used by the paper — EXPERIMENTS.md, "Figure 3", explains the
// substitution), a sequential Dijkstra reference, and a parallel
// label-correcting SSSP driver that runs over any relaxed concurrent
// priority queue.
package graph

import (
	"fmt"
	"math"

	"powerchoice/internal/xrand"
)

// Edge is one out-edge of a Graph: its target node and its weight.
type Edge struct {
	To int32
	W  uint32
}

// Graph is a directed weighted graph in compressed sparse row form.
// Node IDs are 0..NumNodes-1; weights are positive. Each edge's target and
// weight sit side by side, so a relaxation scan of one node's out-edges
// reads one contiguous run of memory.
type Graph struct {
	offsets []int32 // len = n+1
	edges   []Edge  // len = m; u's out-edges are edges[offsets[u]:offsets[u+1]]
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Degree returns the out-degree of node u.
func (g *Graph) Degree(u int) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns u's out-edges in insertion order. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(u int) []Edge {
	return g.edges[g.offsets[u]:g.offsets[u+1]]
}

// edge is a builder-side directed edge.
type edge struct {
	from, to int32
	w        uint32
}

// Builder accumulates edges and produces a CSR Graph.
type Builder struct {
	n     int
	edges []edge
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return newBuilder(n, 0)
}

// newBuilder returns a builder for n nodes whose edge list holds m edges
// before it has to grow: a generator that knows its edge count, or a tight
// bound on it, fills the list without copying it. Gnm, which reserves, checks
// n and m against the CSR's int32 node IDs and offsets first.
func newBuilder(n, m int) *Builder {
	return &Builder{n: n, edges: make([]edge, 0, m)}
}

// AddEdge adds the directed edge u→v with weight w (clamped up to 1: zero
// weights would let Dijkstra loop on zero-cost cycles).
func (b *Builder) AddEdge(u, v int, w uint32) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) outside [0,%d)", u, v, b.n)
	}
	if w == 0 {
		w = 1
	}
	b.edges = append(b.edges, edge{from: int32(u), to: int32(v), w: w})
	return nil
}

// AddBoth adds both directions with the same weight.
func (b *Builder) AddBoth(u, v int, w uint32) error {
	if err := b.AddEdge(u, v, w); err != nil {
		return err
	}
	return b.AddEdge(v, u, w)
}

// Build produces the CSR graph: a stable counting sort of the edges by
// source, so each node's out-edges keep the order they were added in. The
// builder remains usable.
func (b *Builder) Build() *Graph {
	offsets := make([]int32, b.n+1)
	edges := make([]Edge, len(b.edges))
	for _, e := range b.edges {
		offsets[e.from+1]++
	}
	for i := 0; i < b.n; i++ {
		offsets[i+1] += offsets[i]
	}
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	for _, e := range b.edges {
		edges[cursor[e.from]] = Edge{To: e.to, W: e.w}
		cursor[e.from]++
	}
	return &Graph{offsets: offsets, edges: edges}
}

// RoadNetwork generates a synthetic road-network surrogate: a W×H grid of
// intersections with 4-neighbour streets, a fraction of diagonal shortcuts,
// and perturbed Euclidean weights. Like real road networks (and unlike
// G(n,m)), it is near-planar with bounded degree and Θ(sqrt n) diameter —
// the regime where priority-queue quality dominates parallel SSSP time.
// It writes the CSR directly, in two passes over the grid, without a
// Builder.
func RoadNetwork(w, h int, diagFrac float64, seed uint64) (*Graph, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("graph: RoadNetwork needs w,h >= 2, got %dx%d", w, h)
	}
	if diagFrac < 0 || diagFrac > 1 {
		return nil, fmt.Errorf("graph: diagFrac %v outside [0,1]", diagFrac)
	}
	// Compare before multiplying: w·h itself may overflow an int.
	if w > math.MaxInt32/h {
		return nil, fmt.Errorf("graph: a %dx%d grid has more nodes than int32 node IDs can number", w, h)
	}
	if bound := roadEdgeBound(w, h, diagFrac > 0); bound > math.MaxInt32 {
		return nil, fmt.Errorf("graph: a %dx%d grid has up to %d edges, more than int32 offsets can index", w, h, bound)
	}
	n := w * h
	rng := xrand.NewSource(seed)
	// Street weights: ~100 units per block with ±30% jitter, so at least 70
	// and never 0: a 0 in diag marks a cell without a diagonal.
	jitter := func(base float64) uint32 {
		return uint32(base * (0.7 + 0.6*rng.Float64()))
	}
	// Pass 1 draws cell u's streets to its right, down and down-right
	// neighbours, in that order, and counts the directed edges.
	right := make([]uint32, n)
	down := make([]uint32, n)
	diag := make([]uint32, n)
	m := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := y*w + x
			if x+1 < w {
				right[u] = jitter(100)
				m += 2
			}
			if y+1 < h {
				down[u] = jitter(100)
				m += 2
			}
			if x+1 < w && y+1 < h && rng.Float64() < diagFrac {
				diag[u] = jitter(141)
				m += 2
			}
		}
	}
	// Pass 2 writes each node's out-edges in the order the drawing loop
	// reaches their streets: the cells up-left, up and left of u come
	// before u's own right, down and diagonal streets.
	offsets := make([]int32, n+1)
	edges := make([]Edge, 0, m)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := y*w + x
			if x > 0 && y > 0 && diag[u-w-1] != 0 {
				edges = append(edges, Edge{To: int32(u - w - 1), W: diag[u-w-1]})
			}
			if y > 0 {
				edges = append(edges, Edge{To: int32(u - w), W: down[u-w]})
			}
			if x > 0 {
				edges = append(edges, Edge{To: int32(u - 1), W: right[u-1]})
			}
			if x+1 < w {
				edges = append(edges, Edge{To: int32(u + 1), W: right[u]})
			}
			if y+1 < h {
				edges = append(edges, Edge{To: int32(u + w), W: down[u]})
			}
			if diag[u] != 0 {
				edges = append(edges, Edge{To: int32(u + w + 1), W: diag[u]})
			}
			offsets[u+1] = int32(len(edges))
		}
	}
	return &Graph{offsets: offsets, edges: edges}, nil
}

// roadEdgeBound is the largest number of directed edges RoadNetwork(w, h, …)
// can have: both directions of every horizontal and vertical street, plus
// both directions of every cell's diagonal when diagonals are on at all. It
// is exact when diagFrac is 0 or 1. The caller has checked that w·h fits an
// int32, so the int64 arithmetic cannot overflow.
func roadEdgeBound(w, h int, diagonals bool) int64 {
	w64, h64 := int64(w), int64(h)
	undirected := (w64-1)*h64 + w64*(h64-1)
	if diagonals {
		undirected += (w64 - 1) * (h64 - 1)
	}
	return 2 * undirected
}

// RandomGeometric generates a random geometric-like graph: n nodes on a unit
// square connected to their lattice-bucket neighbours within the given
// radius, weights proportional to distance.
func RandomGeometric(n int, radius float64, seed uint64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: RandomGeometric needs n >= 2")
	}
	if radius <= 0 || radius > 1 {
		return nil, fmt.Errorf("graph: radius %v outside (0,1]", radius)
	}
	rng := xrand.NewSource(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	// Bucket grid for neighbour search.
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	bucket := make(map[[2]int][]int)
	cellOf := func(i int) [2]int {
		return [2]int{int(xs[i] * float64(cells)), int(ys[i] * float64(cells))}
	}
	for i := 0; i < n; i++ {
		c := cellOf(i)
		bucket[c] = append(bucket[c], i)
	}
	b := NewBuilder(n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		c := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range bucket[[2]int{c[0] + dx, c[1] + dy}] {
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					d2 := ddx*ddx + ddy*ddy
					if d2 <= r2 {
						w := uint32(1e6 * d2)
						if err := b.AddBoth(i, j, w+1); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	return b.Build(), nil
}

// Gnm generates a uniform random directed multigraph with n nodes and m
// edges, weights uniform in [1, maxW].
func Gnm(n, m int, maxW uint32, seed uint64) (*Graph, error) {
	if n < 2 || m < 1 {
		return nil, fmt.Errorf("graph: Gnm needs n >= 2, m >= 1")
	}
	if maxW == 0 {
		maxW = 1
	}
	if n > math.MaxInt32 || m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: Gnm with %d nodes and %d edges exceeds the int32 node IDs and offsets", n, m)
	}
	rng := xrand.NewSource(seed)
	b := newBuilder(n, m)
	for i := 0; i < m; i++ {
		u, v := rng.TwoDistinct(n)
		if err := b.AddEdge(u, v, uint32(rng.Intn(int(maxW)))+1); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
