package pqueue

import (
	"testing"

	"powerchoice/internal/xrand"
)

// TestSliceHeapProperty verifies the array heap property of the d-ary heap
// after a random run of pushes and pops.
func TestSliceHeapProperty(t *testing.T) {
	rng := xrand.NewSource(7)
	dh := NewDAryHeap[int]()
	for op := 0; op < 5000; op++ {
		dh.Push(rng.Uint64()%1000, op)
		if rng.Float64() < 0.4 {
			dh.PopMin()
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
