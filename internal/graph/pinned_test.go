package graph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// csrDigest is FNV-1a over the logical CSR in node order: each node's
// out-degree, then each out-edge's target and weight, all little-endian
// 32-bit. It reads the graph only through Degree and Neighbors, so it does
// not depend on how the edges are laid out in memory.
func csrDigest(g *Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
	for u := 0; u < g.NumNodes(); u++ {
		put(uint32(g.Degree(u)))
		for _, e := range g.Neighbors(u) {
			put(uint32(e.To))
			put(e.W)
		}
	}
	return h.Sum64()
}

// TestGeneratorsPinned pins every generator's CSR for one seed: the same
// offsets, per-node edge order and weights. SSSP's trajectory, stale counts
// and ranks follow from the CSR, so a change to how a graph is built or
// stored must leave these digests alone.
func TestGeneratorsPinned(t *testing.T) {
	for _, tc := range []struct {
		name         string
		build        func() (*Graph, error)
		nodes, edges int
		digest       uint64
	}{
		{"RoadNetwork(37,23,0.15)", func() (*Graph, error) { return RoadNetwork(37, 23, 0.15, 5) }, 851, 3500, 0x3f40013dc81562cc},
		{"Gnm(500,3000,100)", func() (*Graph, error) { return Gnm(500, 3000, 100, 5) }, 500, 3000, 0x624b907e6b50150a},
	} {
		g, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if g.NumNodes() != tc.nodes || g.NumEdges() != tc.edges {
			t.Errorf("%s: %d nodes, %d edges, want %d and %d", tc.name, g.NumNodes(), g.NumEdges(), tc.nodes, tc.edges)
		}
		if d := csrDigest(g); d != tc.digest {
			t.Errorf("%s: CSR digest %#x, want %#x", tc.name, d, tc.digest)
		}
	}
}
