package core

// Steady-state allocation regression tests: every Handle hot-path operation
// must allocate zero bytes once the structure has reached its working
// capacity. A regression (a lazy make on the hot path, a closure capture, an
// interface box) shows up only if it allocates at least once per measured
// run: testing.AllocsPerRun divides as integers, so an allocation on a path
// that runs every few calls averages to 0. Each run therefore covers every
// path it claims.

import (
	"strings"
	"testing"

	"powerchoice/internal/analysis"
	"powerchoice/internal/xrand"
)

// allocMQ builds a warmed-up MultiQueue and handle: prefilled so heap slices
// have grown to their working capacity, then cycled through 2,048
// insert/delete pairs.
func allocMQ(t *testing.T, opts ...Option) (*MultiQueue[int32], *Handle[V32]) {
	t.Helper()
	mq, err := New[V32](opts...)
	if err != nil {
		t.Fatal(err)
	}
	h := mq.Handle()
	rng := xrand.NewSource(71)
	for i := 0; i < 4096; i++ {
		h.Insert(rng.Uint64()>>1, 0)
	}
	for i := 0; i < 2048; i++ {
		h.Insert(rng.Uint64()>>1, 0)
		h.DeleteMin()
	}
	return mq, h
}

// V32 is the value type the allocation tests use.
type V32 = int32

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, fn); avg != 0 {
		t.Errorf("%s allocates %.2f objects per op in steady state, want 0", name, avg)
	}
}

// allocExercised lists the exported Handle operations the tests in this
// file drive under AllocsPerRun. TestAllocTestsCoverAnnotatedHandleOps
// derives the required list from the //powervet:hotpath annotations, so
// annotating a new Handle operation fails the guard until an alloc test
// exercises it here — and a stale entry fails it the other way.
var allocExercised = map[string]bool{
	"Insert":         true,
	"DeleteMin":      true,
	"InsertBatch":    true,
	"DeleteMinBatch": true,
}

func TestAllocTestsCoverAnnotatedHandleOps(t *testing.T) {
	ann, err := analysis.ScanAnnotations("../..")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "powerchoice/internal/core.Handle."
	annotated := map[string]bool{}
	for _, h := range ann.HotPath {
		if op, ok := strings.CutPrefix(h.Key, prefix); ok {
			annotated[op] = true
		}
	}
	if len(annotated) == 0 {
		t.Fatal("no //powervet:hotpath annotations on Handle operations; the scan or the annotations are gone")
	}
	for op := range annotated {
		if !allocExercised[op] {
			t.Errorf("Handle.%s is //powervet:hotpath but no alloc test here exercises it — add one and list it in allocExercised", op)
		}
	}
	for op := range allocExercised {
		if !annotated[op] {
			t.Errorf("allocExercised lists Handle.%s, which is not //powervet:hotpath (stale entry?)", op)
		}
	}
}

func TestHandleOpsAllocationFree(t *testing.T) {
	_, h := allocMQ(t, WithQueues(8), WithSeed(73))
	rng := xrand.NewSource(74)
	assertZeroAllocs(t, "Insert", func() {
		h.Insert(rng.Uint64()>>1, 0)
		h.DeleteMin() // keep the size balanced so heaps never grow
	})
	assertZeroAllocs(t, "DeleteMin", func() {
		h.DeleteMin()
		h.Insert(rng.Uint64()>>1, 0)
	})
}

// TestHandleOpsAllocationFreeBetaCoin covers the fractional β coin: at
// β = 0.5 every DeleteMin flips it, and either outcome — the single-queue
// draw or the two-choice pair — must stay allocation-free.
func TestHandleOpsAllocationFreeBetaCoin(t *testing.T) {
	_, h := allocMQ(t, WithQueues(8), WithBeta(0.5), WithSeed(75))
	rng := xrand.NewSource(76)
	assertZeroAllocs(t, "DeleteMin(β=0.5)", func() {
		h.DeleteMin()
		h.Insert(rng.Uint64()>>1, 0)
	})
}

func TestBatchOpsAllocationFree(t *testing.T) {
	_, h := allocMQ(t, WithQueues(8), WithSeed(77))
	rng := xrand.NewSource(78)
	const k = 8
	keys := make([]uint64, k)
	vals := make([]V32, k)
	assertZeroAllocs(t, "InsertBatch+DeleteMinBatch", func() {
		for i := range keys {
			keys[i] = rng.Uint64() >> 1
		}
		h.InsertBatch(keys, vals)
		popped := 0
		for popped < k {
			n := h.DeleteMinBatch(keys[popped:], vals[popped:], k-popped)
			if n == 0 {
				t.Fatal("batch pop drained unexpectedly")
			}
			popped += n
		}
	})
}
