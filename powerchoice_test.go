package powerchoice

import (
	"sort"
	"sync"
	"testing"
)

func TestFacadeBasic(t *testing.T) {
	q, err := New[string](WithQueues(4), WithBeta(0.75), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if q.NumQueues() != 4 || q.Beta() != 0.75 {
		t.Fatalf("config not applied: queues=%d beta=%v", q.NumQueues(), q.Beta())
	}
	q.Insert(3, "three")
	q.Insert(1, "one")
	q.Insert(2, "two")
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		_, v, ok := q.DeleteMin()
		if !ok {
			t.Fatal("drained early")
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("recovered %d distinct values", len(seen))
	}
	if _, _, ok := q.DeleteMin(); ok {
		t.Fatal("extra element")
	}
}

func TestFacadeSingleQueueIsExact(t *testing.T) {
	q, err := New[int](WithQueues(1))
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{9, 1, 5, 3, 7}
	for _, k := range keys {
		q.Insert(k, int(k))
	}
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, w := range want {
		k, _, ok := q.DeleteMin()
		if !ok || k != w {
			t.Fatalf("pop = (%d,%v), want %d", k, ok, w)
		}
	}
}

func TestFacadeOptionErrors(t *testing.T) {
	if _, err := New[int](WithBeta(2)); err == nil {
		t.Error("beta=2 accepted")
	}
	if _, err := New[int](WithQueues(-4)); err == nil {
		t.Error("negative queues accepted")
	}
}

// TestFacadeBatchOps: the batched fast path is reachable through the public
// API — InsertBatch/DeleteMinBatch plus the Stats accounting, which were
// internal-only before.
func TestFacadeBatchOps(t *testing.T) {
	q, err := New[int](WithQueues(4), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	h := q.NewHandle()
	const n = 64
	keys := make([]uint64, n)
	vals := make([]int, n)
	for i := range keys {
		keys[i] = uint64(n - i)
		vals[i] = i
	}
	h.InsertBatch(keys, vals)
	if q.Len() != n {
		t.Fatalf("Len = %d after batch insert", q.Len())
	}

	// Drain through DeleteMinBatch: each batch comes back sorted.
	got := 0
	for got < n {
		m := h.DeleteMinBatch(keys[:8], vals[:8], 8)
		if m == 0 {
			t.Fatal("batch pop drained early")
		}
		for i := 1; i < m; i++ {
			if keys[i] < keys[i-1] {
				t.Fatalf("batch not ascending: %v", keys[:m])
			}
		}
		got += m
	}
	if m := h.DeleteMinBatch(keys[:8], vals[:8], 8); m != 0 {
		t.Errorf("%d extra elements after full drain", m)
	}
	if st := h.Stats(); st.Inserts != n || st.Deletes != n {
		t.Errorf("stats after balanced batch ops: %+v", st)
	}
}

func TestFacadeHandlesConcurrent(t *testing.T) {
	q, err := New[uint64](WithQueueFactor(2), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			for i := 0; i < perWorker; i++ {
				h.Insert(uint64(w*perWorker+i), uint64(w))
			}
			for i := 0; i < perWorker; i++ {
				if _, _, ok := h.DeleteMin(); !ok {
					t.Error("unexpected empty")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after balanced ops", q.Len())
	}
}
