package pqueue

import (
	"testing"

	"powerchoice/internal/xrand"
)

// checkBinaryHeapShape verifies the array heap property for both slice
// heaps.
func TestSliceHeapProperty(t *testing.T) {
	rng := xrand.NewSource(7)
	bh := NewBinaryHeap[int]()
	dh := NewDAryHeap[int]()
	for op := 0; op < 5000; op++ {
		k := rng.Uint64() % 1000
		bh.Push(k, op)
		dh.Push(k, op)
		if rng.Float64() < 0.4 {
			bh.PopMin()
			dh.PopMin()
		}
	}
	for i := 1; i < len(bh.items); i++ {
		if bh.items[(i-1)/2].Key > bh.items[i].Key {
			t.Fatalf("binary heap property violated at %d", i)
		}
	}
	for i := 1; i < len(dh.keys); i++ {
		if dh.keys[(i-1)/daryDegree] > dh.keys[i] {
			t.Fatalf("d-ary heap property violated at %d", i)
		}
	}
	if len(dh.vals) != len(dh.keys) {
		t.Fatalf("split slices diverged: %d keys, %d vals", len(dh.keys), len(dh.vals))
	}
}
