package pqueue

import (
	"container/heap"
	"sort"
	"testing"
	"testing/quick"

	"powerchoice/internal/xrand"
)

// refHeap is the reference model built on container/heap.
type refHeap []uint64

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// seqHeap is the surface the table tests drive on both slice heaps.
type seqHeap[V any] interface {
	Push(key uint64, value V)
	PopMin() (Item[V], bool)
	PeekMin() (Item[V], bool)
	Len() int
}

// forEachHeap runs f once per slice heap, in a subtest named after the heap,
// with that heap's constructor.
func forEachHeap[V any](t *testing.T, f func(t *testing.T, newQ func() seqHeap[V])) {
	t.Helper()
	t.Run("binary", func(t *testing.T) { f(t, func() seqHeap[V] { return NewBinaryHeap[V]() }) })
	t.Run("dary", func(t *testing.T) { f(t, func() seqHeap[V] { return NewDAryHeap[V]() }) })
}

func TestEmptyQueue(t *testing.T) {
	forEachHeap(t, func(t *testing.T, newQ func() seqHeap[string]) {
		q := newQ()
		if q.Len() != 0 {
			t.Errorf("empty Len = %d", q.Len())
		}
		if _, ok := q.PopMin(); ok {
			t.Error("PopMin on empty returned ok")
		}
		if _, ok := q.PeekMin(); ok {
			t.Error("PeekMin on empty returned ok")
		}
	})
}

func TestSingleElement(t *testing.T) {
	forEachHeap(t, func(t *testing.T, newQ func() seqHeap[string]) {
		q := newQ()
		q.Push(42, "answer")
		if q.Len() != 1 {
			t.Fatalf("Len = %d", q.Len())
		}
		it, ok := q.PeekMin()
		if !ok || it.Key != 42 || it.Value != "answer" {
			t.Fatalf("PeekMin = %+v, %v", it, ok)
		}
		if q.Len() != 1 {
			t.Fatal("PeekMin consumed the element")
		}
		it, ok = q.PopMin()
		if !ok || it.Key != 42 || it.Value != "answer" {
			t.Fatalf("PopMin = %+v, %v", it, ok)
		}
		if q.Len() != 0 {
			t.Fatalf("Len after pop = %d", q.Len())
		}
	})
}

func TestPopsAreSorted(t *testing.T) {
	forEachHeap(t, func(t *testing.T, newQ func() seqHeap[int]) {
		q := newQ()
		rng := xrand.NewSource(7)
		const n = 2000
		for i := 0; i < n; i++ {
			q.Push(rng.Uint64()%10000, i)
		}
		var prev uint64
		for i := 0; i < n; i++ {
			it, ok := q.PopMin()
			if !ok {
				t.Fatalf("queue empty after %d pops, want %d", i, n)
			}
			if it.Key < prev {
				t.Fatalf("pop %d: key %d < previous %d", i, it.Key, prev)
			}
			prev = it.Key
		}
		if _, ok := q.PopMin(); ok {
			t.Fatal("extra element after draining")
		}
	})
}

func TestDuplicateKeysPreserved(t *testing.T) {
	forEachHeap(t, func(t *testing.T, newQ func() seqHeap[int]) {
		q := newQ()
		for i := 0; i < 10; i++ {
			q.Push(5, i)
		}
		seen := make(map[int]bool)
		for i := 0; i < 10; i++ {
			it, ok := q.PopMin()
			if !ok || it.Key != 5 {
				t.Fatalf("pop %d = %+v, %v", i, it, ok)
			}
			if seen[it.Value] {
				t.Fatalf("value %d popped twice", it.Value)
			}
			seen[it.Value] = true
		}
	})
}

func TestInterleavedAgainstReference(t *testing.T) {
	forEachHeap(t, func(t *testing.T, newQ func() seqHeap[struct{}]) {
		q := newQ()
		ref := &refHeap{}
		rng := xrand.NewSource(99)
		for op := 0; op < 20000; op++ {
			if ref.Len() == 0 || rng.Float64() < 0.55 {
				k := rng.Uint64() % 1e6
				q.Push(k, struct{}{})
				heap.Push(ref, k)
			} else {
				it, ok := q.PopMin()
				want := heap.Pop(ref).(uint64)
				if !ok || it.Key != want {
					t.Fatalf("op %d: PopMin = (%d,%v), want %d", op, it.Key, ok, want)
				}
			}
			if q.Len() != ref.Len() {
				t.Fatalf("op %d: Len = %d, want %d", op, q.Len(), ref.Len())
			}
			if ref.Len() > 0 {
				it, ok := q.PeekMin()
				if !ok || it.Key != (*ref)[0] {
					t.Fatalf("op %d: PeekMin = (%d,%v), want %d", op, it.Key, ok, (*ref)[0])
				}
			}
		}
	})
}

func TestAscendingAndDescendingInserts(t *testing.T) {
	forEachHeap(t, func(t *testing.T, newQ func() seqHeap[int]) {
		for dir, asc := range map[string]bool{"ascending": true, "descending": false} {
			q := newQ()
			const n = 500
			for i := 0; i < n; i++ {
				k := uint64(i)
				if !asc {
					k = uint64(n - i)
				}
				q.Push(k, 0)
			}
			var prev uint64
			for i := 0; i < n; i++ {
				it, ok := q.PopMin()
				if !ok || it.Key < prev {
					t.Fatalf("%s: pop %d = (%d, %v) prev %d", dir, i, it.Key, ok, prev)
				}
				prev = it.Key
			}
		}
	})
}

func TestExtremeKeys(t *testing.T) {
	forEachHeap(t, func(t *testing.T, newQ func() seqHeap[string]) {
		q := newQ()
		q.Push(^uint64(0), "max")
		q.Push(0, "zero")
		q.Push(^uint64(0)-1, "almost")
		it, _ := q.PopMin()
		if it.Value != "zero" {
			t.Fatalf("first pop = %q", it.Value)
		}
		it, _ = q.PopMin()
		if it.Value != "almost" {
			t.Fatalf("second pop = %q", it.Value)
		}
		it, _ = q.PopMin()
		if it.Value != "max" {
			t.Fatalf("third pop = %q", it.Value)
		}
	})
}

func TestQuickMultisetPreservation(t *testing.T) {
	forEachHeap(t, func(t *testing.T, newQ func() seqHeap[struct{}]) {
		check := func(keys []uint16) bool {
			q := newQ()
			want := make([]uint64, len(keys))
			for i, k := range keys {
				want[i] = uint64(k)
				q.Push(uint64(k), struct{}{})
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got := make([]uint64, 0, len(keys))
			for {
				it, ok := q.PopMin()
				if !ok {
					break
				}
				got = append(got, it.Key)
			}
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	})
}

func TestRefillAfterDrain(t *testing.T) {
	forEachHeap(t, func(t *testing.T, newQ func() seqHeap[int]) {
		q := newQ()
		for round := 0; round < 3; round++ {
			for i := 100; i > 0; i-- {
				q.Push(uint64(i), i)
			}
			for i := 1; i <= 100; i++ {
				it, ok := q.PopMin()
				if !ok || it.Key != uint64(i) {
					t.Fatalf("round %d: pop = (%d,%v), want %d", round, it.Key, ok, i)
				}
			}
		}
	})
}

func benchPushPop(b *testing.B, q seqHeap[struct{}]) {
	rng := xrand.NewSource(1)
	// Steady state: prefill, then alternate push/pop.
	for i := 0; i < 1024; i++ {
		q.Push(rng.Uint64(), struct{}{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(rng.Uint64(), struct{}{})
		q.PopMin()
	}
}

func BenchmarkBinaryHeap(b *testing.B) { benchPushPop(b, NewBinaryHeap[struct{}]()) }
func BenchmarkDAryHeap(b *testing.B)   { benchPushPop(b, NewDAryHeap[struct{}]()) }
