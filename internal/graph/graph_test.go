package graph

import (
	"math"
	"strings"
	"testing"

	"powerchoice/internal/xrand"
)

func TestBuilderValidates(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative node accepted")
	}
	if err := b.AddEdge(0, 4, 1); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestBuilderZeroWeightClamped(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if w := g.Neighbors(0)[0].W; w != 1 {
		t.Fatalf("zero weight not clamped: %d", w)
	}
}

func TestCSRStructure(t *testing.T) {
	b := NewBuilder(4)
	edges := [][3]int{{0, 1, 5}, {0, 2, 3}, {1, 3, 2}, {2, 3, 7}, {3, 0, 1}}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1], uint32(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumNodes() != 4 || g.NumEdges() != 5 {
		t.Fatalf("%d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 1 || g.Degree(3) != 1 {
		t.Fatal("degrees wrong")
	}
	found := map[int32]uint32{}
	for _, e := range g.Neighbors(0) {
		found[e.To] = e.W
	}
	if found[1] != 5 || found[2] != 3 {
		t.Fatalf("neighbors of 0 = %v", found)
	}
}

func TestRoadNetworkProperties(t *testing.T) {
	g, err := RoadNetwork(20, 15, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 300 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Bounded degree: at most 4 street + up to 4 diagonal directions,
	// doubled for both orientations of the undirected pairs.
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(u); d > 8 {
			t.Fatalf("node %d degree %d too high for a road network", u, d)
		}
	}
	// Connectivity: every node reachable from 0.
	dist, err := Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u, d := range dist {
		if d == Inf {
			t.Fatalf("node %d unreachable", u)
		}
	}
}

func TestRoadNetworkValidates(t *testing.T) {
	if _, err := RoadNetwork(1, 5, 0, 1); err == nil {
		t.Error("1-wide grid accepted")
	}
	if _, err := RoadNetwork(5, 5, -0.1, 1); err == nil {
		t.Error("negative diagFrac accepted")
	}
	if _, err := RoadNetwork(5, 5, 1.1, 1); err == nil {
		t.Error("diagFrac > 1 accepted")
	}
}

// TestRoadEdgeBoundExact: roadEdgeBound, the edge count RoadNetwork checks
// against int32 offsets before it allocates, is its exact edge count when no
// cell's diagonal is a coin flip, so at diagFrac 0 or 1 the check rejects no
// grid whose CSR would fit.
func TestRoadEdgeBoundExact(t *testing.T) {
	for _, tc := range []struct {
		w, h     int
		diagFrac float64
	}{{2, 2, 0}, {2, 2, 1}, {7, 3, 0}, {7, 3, 1}, {20, 15, 0}, {20, 15, 1}} {
		g, err := RoadNetwork(tc.w, tc.h, tc.diagFrac, 1)
		if err != nil {
			t.Fatal(err)
		}
		if bound := roadEdgeBound(tc.w, tc.h, tc.diagFrac > 0); int64(g.NumEdges()) != bound {
			t.Errorf("RoadNetwork(%d, %d, %v): %d edges, bound %d", tc.w, tc.h, tc.diagFrac, g.NumEdges(), bound)
		}
	}
}

// TestGeneratorsReserveEdgeList: RoadNetwork and Gnm size their edge storage
// once, so a build costs the same few allocations however many edges it
// adds. Gnm reserves the builder's edge list; RoadNetwork uses no builder
// and allocates its per-cell weight arrays and its exact-size CSR. An edge
// list grown by append costs one more allocation per growth step: dozens at
// these sizes.
func TestGeneratorsReserveEdgeList(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*Graph, error)
	}{
		{"RoadNetwork(100,100,0.15)", func() (*Graph, error) { return RoadNetwork(100, 100, 0.15, 1) }},
		{"Gnm(1000,20000,100)", func() (*Graph, error) { return Gnm(1000, 20000, 100, 1) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(3, func() { _, err = tc.build() })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs > 8 {
			t.Errorf("%s: %v allocations per build, want at most 8", tc.name, allocs)
		}
	}
}

// TestGeneratorsRejectOversize: node IDs and offsets are int32, so a graph
// whose node count or edge bound is past math.MaxInt32 is an error, not a
// silent truncation. Every size here is also too large for make to accept,
// so a missing check panics rather than allocating.
func TestGeneratorsRejectOversize(t *testing.T) {
	if _, err := RoadNetwork(1<<24, 1<<24, 0.15, 1); err == nil {
		t.Error("RoadNetwork with 2^48 nodes accepted")
	}
	if _, err := RoadNetwork(math.MaxInt, 2, 0, 1); err == nil {
		t.Error("RoadNetwork whose w·h overflows an int accepted")
	}
	if _, err := Gnm(1<<47, 5, 10, 1); err == nil {
		t.Error("Gnm with 2^47 nodes accepted")
	}
	if _, err := Gnm(10, 1<<46, 10, 1); err == nil {
		t.Error("Gnm with 2^46 edges accepted")
	}
}

func TestRandomGeometric(t *testing.T) {
	g, err := RandomGeometric(500, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
	if _, err := RandomGeometric(1, 0.1, 2); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := RandomGeometric(10, 0, 2); err == nil {
		t.Error("radius 0 accepted")
	}
}

func TestGnm(t *testing.T) {
	g, err := Gnm(100, 500, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 500 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range g.Neighbors(u) {
			if e.W < 1 || e.W > 10 {
				t.Fatalf("weight %d outside [1,10]", e.W)
			}
		}
	}
	if _, err := Gnm(1, 5, 10, 3); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestDijkstraSmallKnown(t *testing.T) {
	//     0 --5--> 1 --2--> 3
	//     |                 ^
	//     +--3--> 2 ---7----+
	b := NewBuilder(4)
	for _, e := range [][3]int{{0, 1, 5}, {0, 2, 3}, {1, 3, 2}, {2, 3, 7}} {
		if err := b.AddEdge(e[0], e[1], uint32(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	dist, err := Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 5, 3, 7}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], w)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	dist, err := Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != Inf {
		t.Fatalf("dist[2] = %d, want Inf", dist[2])
	}
}

func TestDijkstraValidatesSource(t *testing.T) {
	g, _ := RoadNetwork(3, 3, 0, 1)
	if _, err := Dijkstra(g, -1); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := Dijkstra(g, 9); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, _, err := ParallelSSSP(g, 9, newDumbPQ(), 1); err == nil {
		t.Error("ParallelSSSP out-of-range source accepted")
	}
	if _, _, err := ParallelSSSPBatch(g, 0, nil, 1, 1); err == nil || !strings.Contains(err.Error(), "nil queue") {
		t.Errorf("ParallelSSSPBatch with a nil queue: err = %v, want a nil-queue error", err)
	}
}

// dumbPQ is a trivial mutex-protected queue for driver testing without
// importing the adapters (which would create an import cycle in tests).
type dumbPQ struct {
	mu    syncMutex
	keys  []uint64
	nodes []int32
}

type syncMutex struct{ ch chan struct{} }

func newSyncMutex() syncMutex { return syncMutex{ch: make(chan struct{}, 1)} }
func (m *syncMutex) lock()    { m.ch <- struct{}{} }
func (m *syncMutex) unlock()  { <-m.ch }
func newDumbPQ() *dumbPQ      { return &dumbPQ{mu: newSyncMutex()} }
func (d *dumbPQ) Len() int    { return len(d.keys) }
func (d *dumbPQ) Insert(k uint64, n int32) {
	d.mu.lock()
	d.keys = append(d.keys, k)
	d.nodes = append(d.nodes, n)
	d.mu.unlock()
}
func (d *dumbPQ) DeleteMin() (uint64, int32, bool) {
	d.mu.lock()
	defer d.mu.unlock()
	if len(d.keys) == 0 {
		return 0, 0, false
	}
	best := 0
	for i, k := range d.keys {
		if k < d.keys[best] {
			best = i
		}
		_ = k
	}
	k, n := d.keys[best], d.nodes[best]
	last := len(d.keys) - 1
	d.keys[best], d.nodes[best] = d.keys[last], d.nodes[last]
	d.keys, d.nodes = d.keys[:last], d.nodes[:last]
	return k, n, true
}

func TestParallelSSSPMatchesDijkstra(t *testing.T) {
	g, err := RoadNetwork(25, 25, 0.15, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, st, err := ParallelSSSP(g, 0, newDumbPQ(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("workers=%d: dist[%d] = %d, want %d", workers, u, got[u], want[u])
			}
		}
		if st.Relaxations == 0 {
			t.Error("no relaxations counted")
		}
	}
}

func TestParallelSSSPRandomGraphs(t *testing.T) {
	rng := xrand.NewSource(5)
	for trial := 0; trial < 5; trial++ {
		g, err := Gnm(200, 1500, 100, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		want, err := Dijkstra(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ParallelSSSP(g, 0, newDumbPQ(), 4)
		if err != nil {
			t.Fatal(err)
		}
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("trial %d: dist[%d] = %d, want %d", trial, u, got[u], want[u])
			}
		}
	}
}

// BenchmarkRoadNetwork builds powerbench sssp's default 300×300 grid, the
// set-up every SSSP run pays before its first solve.
func BenchmarkRoadNetwork(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RoadNetwork(300, 300, 0.15, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDijkstraRoadNetwork(b *testing.B) {
	g, err := RoadNetwork(100, 100, 0.15, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Dijkstra(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}
