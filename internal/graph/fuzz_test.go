package graph

import (
	"testing"

	"powerchoice/internal/xrand"
)

// referenceRoadNetwork is RoadNetwork as a Builder list: every street is
// added in both directions in the order its weights are drawn, and Build's
// stable counting sort by source fixes each node's edge order.
func referenceRoadNetwork(w, h int, diagFrac float64, seed uint64) (*Graph, error) {
	rng := xrand.NewSource(seed)
	b := NewBuilder(w * h)
	id := func(x, y int) int { return y*w + x }
	jitter := func(base float64) uint32 {
		return uint32(base * (0.7 + 0.6*rng.Float64()))
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				if err := b.AddBoth(id(x, y), id(x+1, y), jitter(100)); err != nil {
					return nil, err
				}
			}
			if y+1 < h {
				if err := b.AddBoth(id(x, y), id(x, y+1), jitter(100)); err != nil {
					return nil, err
				}
			}
			if x+1 < w && y+1 < h && rng.Float64() < diagFrac {
				if err := b.AddBoth(id(x, y), id(x+1, y+1), jitter(141)); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build(), nil
}

// fuzzSide maps a byte onto a grid side in [2, 48], keeping the bytes
// already in that range.
func fuzzSide(b uint8) int { return 2 + (int(b)+45)%47 }

// FuzzRoadNetwork checks RoadNetwork's CSR against referenceRoadNetwork:
// the same node count, and for every node the same degree and the same
// out-edges, target and weight, in the same order. The grid's sides are in
// [2, 48] and its diagonal fraction is diag/255, so 0 and 255 give the exact
// fractions 0 and 1. The checked-in corpus holds 2×2 at 1, 48×2 at 0, 2×48
// at 1 and 37×23 at 38/255 ≈ 0.15, and runs as plain subtests in every go
// test.
func FuzzRoadNetwork(f *testing.F) {
	f.Fuzz(func(t *testing.T, w, h, diag uint8, seed uint64) {
		gw, gh, frac := fuzzSide(w), fuzzSide(h), float64(diag)/255
		got, err := RoadNetwork(gw, gh, frac, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceRoadNetwork(gw, gh, frac, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("%dx%d at %v: %d nodes and %d edges, reference %d and %d",
				gw, gh, frac, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		for u := 0; u < want.NumNodes(); u++ {
			g, r := got.Neighbors(u), want.Neighbors(u)
			if len(g) != len(r) {
				t.Fatalf("%dx%d at %v: node %d has degree %d, reference %d", gw, gh, frac, u, len(g), len(r))
			}
			for i := range r {
				if g[i] != r[i] {
					t.Fatalf("%dx%d at %v: node %d edge %d is %+v, reference %+v", gw, gh, frac, u, i, g[i], r[i])
				}
			}
		}
	})
}
