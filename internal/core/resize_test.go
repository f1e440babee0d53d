package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestResizeAccessorsTrackSnapshot pins the satellite contract: NumQueues,
// Shards, Config and Epoch must report the *live* snapshot after a Resize,
// not the construction-time values, and all of them must agree with the
// snapshot pointer itself across epochs.
func TestResizeAccessorsTrackSnapshot(t *testing.T) {
	mq, err := New[int](WithQueues(8), WithShards(2), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	check := func(wantQ, wantS int, wantEpoch uint64) {
		t.Helper()
		snap := mq.snapshot()
		if got := mq.NumQueues(); got != wantQ || got != len(snap.queues) {
			t.Fatalf("NumQueues() = %d, want %d (snapshot has %d)", got, wantQ, len(snap.queues))
		}
		if got := mq.Shards(); got != wantS || got != snap.shards {
			t.Fatalf("Shards() = %d, want %d (snapshot has %d)", got, wantS, snap.shards)
		}
		if got := mq.Epoch(); got != wantEpoch || got != snap.epoch {
			t.Fatalf("Epoch() = %d, want %d (snapshot has %d)", got, wantEpoch, snap.epoch)
		}
		cfg := mq.Config()
		if cfg.Queues != wantQ || cfg.Shards != wantS {
			t.Fatalf("Config() = {Queues:%d Shards:%d}, want {%d %d}", cfg.Queues, cfg.Shards, wantQ, wantS)
		}
	}
	check(8, 2, 0)
	if err := mq.Resize(16, 4); err != nil {
		t.Fatal(err)
	}
	check(16, 4, 1)
	if mq.Resizes() != 1 {
		t.Fatalf("Resizes() = %d after one resize", mq.Resizes())
	}
	// shards <= 0 keeps the current shard count.
	if err := mq.Resize(12, 0); err != nil {
		t.Fatal(err)
	}
	check(12, 4, 2)
	// A shard count that would leave a shard fewer than Choices queues is
	// re-clamped, the WithShards rule.
	if err := mq.Resize(4, 8); err != nil {
		t.Fatal(err)
	}
	check(4, 2, 3)
	// A no-op resize bumps neither epoch nor the resize counter.
	if err := mq.Resize(4, 2); err != nil {
		t.Fatal(err)
	}
	check(4, 2, 3)
	if mq.Resizes() != 3 {
		t.Fatalf("Resizes() = %d, want 3 (no-op must not count)", mq.Resizes())
	}
}

func TestResizeValidation(t *testing.T) {
	mq, err := New[int](WithQueues(8), WithChoices(4), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := mq.Resize(0, 1); err == nil {
		t.Fatal("Resize(0, 1) must fail")
	}
	if err := mq.Resize(2, 1); err == nil {
		t.Fatal("Resize below Choices must fail (d-choice needs d distinct queues)")
	}
	if mq.Epoch() != 0 || mq.Resizes() != 0 {
		t.Fatalf("failed resizes must not advance epoch (%d) or count (%d)", mq.Epoch(), mq.Resizes())
	}
}

// resizePreservesMultiset drives one grow-or-shrink against a prefilled
// structure and checks the element multiset survives and every retired queue
// drained to zero.
func resizePreservesMultiset(t *testing.T, from, to int, opts ...Option) {
	t.Helper()
	mq, err := New[int](append([]Option{WithQueues(from), WithSeed(7)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	h := mq.Handle()
	const n = 4096
	want := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		k := uint64(i % 257)
		h.Insert(k, i)
		want[k]++
	}
	old := mq.snapshot().queues
	if err := mq.Resize(to, 0); err != nil {
		t.Fatal(err)
	}
	// Every retired queue must be closed and hold nothing.
	live := mq.snapshot().queues
	if len(live) != to {
		t.Fatalf("live snapshot has %d queues, want %d", len(live), to)
	}
	if to < from {
		for i, q := range old[to:] {
			q.lock.Lock()
			closed, count := q.closed, q.count
			q.lock.Unlock()
			if !closed {
				t.Fatalf("retired queue %d not closed", to+i)
			}
			if count != 0 {
				t.Fatalf("retired queue %d still holds %d elements", to+i, count)
			}
		}
	}
	if got := mq.Len(); got != n {
		t.Fatalf("Len() = %d after resize, want %d", got, n)
	}
	for {
		k, _, ok := h.DeleteMin()
		if !ok {
			break
		}
		want[k]--
		if want[k] == 0 {
			delete(want, k)
		}
	}
	if len(want) != 0 {
		t.Fatalf("multiset not preserved across resize: %d keys unaccounted", len(want))
	}
}

func TestResizeShrinkDrainsRetired(t *testing.T) {
	resizePreservesMultiset(t, 16, 4)
}

func TestResizeGrowPreservesElements(t *testing.T) {
	resizePreservesMultiset(t, 4, 16)
}

func TestResizeShrinkSharded(t *testing.T) {
	resizePreservesMultiset(t, 16, 4, WithShards(4), WithLocalBias(0.9))
}

func TestResizeAtomicMode(t *testing.T) {
	resizePreservesMultiset(t, 16, 4, WithAtomic(true))
	resizePreservesMultiset(t, 4, 16, WithAtomic(true))
}

// TestResizeRepinsHandles: a handle's selector must adopt the new snapshot —
// home-shard scope re-derived, sticky streaks dropped — on its first
// operation after an epoch change.
func TestResizeRepinsHandles(t *testing.T) {
	mq, err := New[int](WithQueues(8), WithShards(2), WithLocalBias(1), WithStickiness(4), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	h := mq.Handle()
	h.Insert(1, 1)
	if h.sel.cur.epoch != 0 {
		t.Fatalf("selector pinned to epoch %d before any resize", h.sel.cur.epoch)
	}
	if h.sel.stickyIns == nil {
		t.Fatal("stickiness armed but no insert streak remembered")
	}
	if err := mq.Resize(16, 4); err != nil {
		t.Fatal(err)
	}
	h.Insert(2, 2)
	if h.sel.cur != mq.snapshot() {
		t.Fatal("selector did not adopt the live snapshot after resize")
	}
	if h.sel.cur.epoch != 1 {
		t.Fatalf("selector on epoch %d, want 1", h.sel.cur.epoch)
	}
	// Home scope must describe a shard of the new topology: 16 queues over 4
	// shards is 4 queues per shard.
	if h.sel.homeN != 4 {
		t.Fatalf("home shard spans %d queues after resize, want 4", h.sel.homeN)
	}
	if lo := h.sel.homeLo; lo%4 != 0 || lo < 0 || lo >= 16 {
		t.Fatalf("home shard starts at %d, not a shard boundary of the new topology", lo)
	}
}

// TestResizeConcurrentExactOnce is the in-package face of the resize stress
// contract: concurrent inserters, deleters and a resizer thrashing the
// topology must neither lose nor duplicate an element. The bench-level stress
// test repeats this through the sched executor across the line-up entries.
func TestResizeConcurrentExactOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"sharded", []Option{WithShards(2), WithLocalBias(0.9)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mq, err := New[int](append([]Option{WithQueues(8), WithSeed(11)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			const (
				workers = 4
				perW    = 20000
			)
			var inserted, deleted atomic.Int64
			var workersWG, resizerWG sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < workers; w++ {
				workersWG.Add(1)
				go func(w int) {
					defer workersWG.Done()
					h := mq.Handle()
					for i := 0; i < perW; i++ {
						h.Insert(uint64(w*perW+i), i)
						inserted.Add(1)
						if i%2 == 1 {
							if _, _, ok := h.DeleteMin(); ok {
								deleted.Add(1)
							}
						}
					}
				}(w)
			}
			resizerWG.Add(1)
			go func() {
				defer resizerWG.Done()
				sizes := []int{4, 16, 8, 32, 8}
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := mq.Resize(sizes[i%len(sizes)], 0); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			workersWG.Wait()
			close(stop)
			resizerWG.Wait()
			// Drain what remains and account for every element.
			h := mq.Handle()
			remaining := int64(0)
			for {
				if _, _, ok := h.DeleteMin(); !ok {
					break
				}
				remaining++
			}
			if got, want := deleted.Load()+remaining, inserted.Load(); got != want {
				t.Fatalf("exact-once violated: inserted %d, recovered %d (deleted %d + drained %d)",
					want, got, deleted.Load(), remaining)
			}
		})
	}
}
