package pqadapt

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"powerchoice/internal/graph"
	"powerchoice/internal/sched"
	"powerchoice/internal/xrand"
)

func TestNewRejectsUnknown(t *testing.T) {
	if _, err := New(Impl("nope"), 1); err == nil {
		t.Error("unknown impl accepted")
	}
}

func TestImplsConstructible(t *testing.T) {
	for _, impl := range Impls() {
		if _, err := New(impl, 1); err != nil {
			t.Errorf("New(%q): %v", impl, err)
		}
	}
}

// TestResizableStubs pins the sched.Resizable stubs on the MultiQueue
// adapter: the queue set is fixed at construction, so every Resize fails
// and leaves it as built, and Epoch and Resizes read 0.
func TestResizableStubs(t *testing.T) {
	q, err := NewSpec(Spec{Impl: ImplMultiQueue, Queues: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := q.(sched.Resizable)
	if !ok {
		t.Fatalf("%T does not implement sched.Resizable", q)
	}
	for _, shards := range []int{0, 1, 2} {
		if err := r.Resize(16, shards); err == nil {
			t.Errorf("Resize(16, %d) accepted", shards)
		}
	}
	if r.NumQueues() != 8 || r.Epoch() != 0 || r.Resizes() != 0 {
		t.Errorf("queues %d, epoch %d, resizes %d; want 8, 0, 0", r.NumQueues(), r.Epoch(), r.Resizes())
	}
}

func TestAllImplsRoundTrip(t *testing.T) {
	for _, impl := range Impls() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			q, err := New(impl, 2)
			if err != nil {
				t.Fatal(err)
			}
			const n = 2000
			for i := 0; i < n; i++ {
				q.Insert(uint64(i), int32(i))
			}
			if q.Len() != n {
				t.Fatalf("Len = %d", q.Len())
			}
			seen := make([]bool, n)
			for i := 0; i < n; i++ {
				k, v, ok := q.DeleteMin()
				if !ok {
					t.Fatalf("drained at %d", i)
				}
				if uint64(v) != k {
					t.Fatalf("key %d carried value %d", k, v)
				}
				if seen[k] {
					t.Fatalf("key %d twice", k)
				}
				seen[k] = true
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after drain", q.Len())
			}
		})
	}
}

func TestExactImplsAreSorted(t *testing.T) {
	// The skiplist and global-lock heap are exact priority queues; their
	// single-threaded pop sequence must be globally sorted.
	for _, impl := range []Impl{ImplSkipList, ImplGlobalLock} {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			q, err := New(impl, 3)
			if err != nil {
				t.Fatal(err)
			}
			rng := xrand.NewSource(4)
			keys := make([]uint64, 1000)
			for i := range keys {
				keys[i] = rng.Uint64() % 10000
				q.Insert(keys[i], 0)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for i, want := range keys {
				k, _, ok := q.DeleteMin()
				if !ok || k != want {
					t.Fatalf("pop %d = (%d,%v), want %d", i, k, ok, want)
				}
			}
		})
	}
}

func TestWorkerLocalImpls(t *testing.T) {
	// MultiQueue and k-LSM adapters must provide local views; local views
	// must see globally published elements.
	for _, impl := range []Impl{ImplMultiQueue, ImplOneBeta50, ImplOneBeta75, ImplKLSM} {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			q, err := New(impl, 5)
			if err != nil {
				t.Fatal(err)
			}
			wl, ok := q.(graph.WorkerLocal)
			if !ok {
				t.Fatalf("%s does not implement WorkerLocal", impl)
			}
			q.Insert(42, 42)
			local := wl.Local()
			k, v, ok := local.DeleteMin()
			if !ok || k != 42 || v != 42 {
				t.Fatalf("local view pop = (%d,%d,%v)", k, v, ok)
			}
		})
	}
}

func TestNewMultiQueueBeta(t *testing.T) {
	q, err := NewMultiQueueBeta(0.5, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	q.Insert(1, 1)
	if _, _, ok := q.DeleteMin(); !ok {
		t.Fatal("empty after insert")
	}
	if _, err := NewMultiQueueBeta(-1, 4, 7); err == nil {
		t.Error("negative beta accepted")
	}
}

func TestNewSpecPinsTopology(t *testing.T) {
	for _, impl := range []Impl{ImplMultiQueue, ImplOneBeta50, ImplOneBeta75} {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			q, err := NewSpec(Spec{Impl: impl, Queues: PaperQueues, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			top := TopologyOf(impl, q)
			if top.Queues != PaperQueues {
				t.Errorf("queues = %d, want %d", top.Queues, PaperQueues)
			}
			if top.Choices >= top.Queues {
				t.Errorf("degenerate pinned topology: choices %d ≥ queues %d", top.Choices, top.Queues)
			}
			if top.Beta <= 0 || top.Beta > 1 {
				t.Errorf("beta = %v", top.Beta)
			}
		})
	}
	// Unpinned MultiQueue derives from the host but never degenerates.
	q, err := NewSpec(Spec{Impl: ImplMultiQueue, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if top := TopologyOf(ImplMultiQueue, q); top.Queues < 4 || top.Choices >= top.Queues {
		t.Errorf("derived topology degenerate: %+v", top)
	}
	// Non-MultiQueue impls ignore Queues and report no topology.
	sq, err := NewSpec(Spec{Impl: ImplSkipList, Queues: PaperQueues, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if top := TopologyOf(ImplSkipList, sq); top.Queues != 0 || top.Choices != 0 || top.Beta != 0 {
		t.Errorf("skiplist reports queue topology: %+v", top)
	}
}

func TestIsMultiQueue(t *testing.T) {
	want := map[Impl]bool{
		ImplMultiQueue: true, ImplOneBeta50: true, ImplOneBeta75: true,
		ImplSkipList: false, ImplKLSM: false, ImplGlobalLock: false,
	}
	for impl, mq := range want {
		if IsMultiQueue(impl) != mq {
			t.Errorf("IsMultiQueue(%s) = %v, want %v", impl, !mq, mq)
		}
	}
}

// TestKLSMSharedPathPublishesAllInserts: the shared fallback path batches
// inserts through its handle instead of flushing per element; every insert
// must still end up retrievable, both by the shared path itself and by local
// views created afterwards.
func TestKLSMSharedPathPublishesAllInserts(t *testing.T) {
	const n = 100 // not a multiple of the insert bound, so a partial batch stays pending
	q, err := New(ImplKLSM, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		q.Insert(uint64(i), int32(i))
	}
	if q.Len() != n {
		t.Fatalf("Len = %d after %d shared inserts", q.Len(), n)
	}
	// A local view created now must observe every prior shared insert,
	// including the partial batch still in the fallback handle's buffer.
	local := q.(graph.WorkerLocal).Local()
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		k, _, ok := local.DeleteMin()
		if !ok {
			t.Fatalf("local view drained after %d of %d", i, n)
		}
		if seen[k] {
			t.Fatalf("key %d delivered twice", k)
		}
		seen[k] = true
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}

	// The shared path alone must also round-trip everything it inserted.
	q2, err := New(ImplKLSM, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		q2.Insert(uint64(i), int32(i))
	}
	for i := 0; i < n; i++ {
		if _, _, ok := q2.DeleteMin(); !ok {
			t.Fatalf("shared path drained after %d of %d", i, n)
		}
	}
}

func TestConcurrentSmokeAllImpls(t *testing.T) {
	for _, impl := range Impls() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			q, err := New(impl, 8)
			if err != nil {
				t.Fatal(err)
			}
			const workers = 4
			const per = 2000
			const total = workers * per
			// Deletions are counted globally: with the k-LSM a worker's last
			// few inserts can sit in its local buffer, visible only to that
			// worker, so per-worker delete quotas could deadlock.
			var deleted atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					view := graph.ConcurrentPQ(q)
					if wl, ok := q.(graph.WorkerLocal); ok {
						view = wl.Local()
					}
					for i := 0; i < per; i++ {
						view.Insert(uint64(w*per+i), int32(i))
					}
					for deleted.Load() < total {
						if _, _, ok := view.DeleteMin(); ok {
							deleted.Add(1)
						}
					}
				}(w)
			}
			wg.Wait()
			if deleted.Load() != total {
				t.Fatalf("deleted %d of %d", deleted.Load(), total)
			}
		})
	}
}
