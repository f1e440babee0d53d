package core

import (
	"sync"
	"testing"
)

func TestShardOptionsValidation(t *testing.T) {
	if _, err := New[int](WithShards(-2)); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := New[int](WithLocalBias(-0.1)); err == nil {
		t.Error("negative local bias accepted")
	}
	if _, err := New[int](WithLocalBias(1.5)); err == nil {
		t.Error("local bias > 1 accepted")
	}
	mq := mustNew[int](t, WithQueues(8), WithShards(4), WithLocalBias(0.9))
	cfg := mq.Config()
	if cfg.Shards != 4 || cfg.LocalBias != 0.9 || mq.Shards() != 4 {
		t.Errorf("shard config not applied: %+v", cfg)
	}
	if got := mustNew[int](t, WithQueues(8)).Config().Shards; got != 1 {
		t.Errorf("default shards = %d, want 1 (unsharded)", got)
	}
}

// TestShardCountClampedToChoices: every shard must keep at least d queues —
// a smaller shard could not supply two distinct two-choice candidates — so
// the requested count is clamped and the resolved value reported, exactly
// like the derived-queue floor.
func TestShardCountClampedToChoices(t *testing.T) {
	cases := []struct {
		queues, shards int
		want           int
	}{
		{queues: 8, shards: 4, want: 4},
		{queues: 8, shards: 64, want: 4}, // ⌊8/2⌋
		{queues: 4, shards: 4, want: 2},  // ⌊4/2⌋
		{queues: 3, shards: 4, want: 1},  // ⌊3/2⌋
		{queues: 2, shards: 2, want: 2},  // d = 1: single-queue shards are fine
		{queues: 1, shards: 8, want: 1},  // only the trivial shard fits
		{queues: 10, shards: 4, want: 4}, // non-divisible split: min size ⌊10/4⌋ = 2
	}
	for _, c := range cases {
		mq := mustNew[int](t, WithQueues(c.queues), WithShards(c.shards), WithLocalBias(1))
		if got := mq.Config().Shards; got != c.want {
			t.Errorf("n=%d d=%d g=%d: resolved shards = %d, want %d",
				c.queues, mq.Config().Choices, c.shards, got, c.want)
		}
	}
}

// TestShardHomesRoundRobin: handles are pinned to contiguous shards
// round-robin in creation order, so g handles cover every queue range.
func TestShardHomesRoundRobin(t *testing.T) {
	mq := mustNew[int](t, WithQueues(8), WithShards(4), WithLocalBias(1))
	wantLo := []int{0, 2, 4, 6, 0, 2} // shard size 2, wrap after g handles
	for i, lo := range wantLo {
		h := mq.Handle()
		if h.sel.homeLo != lo || h.sel.homeN != 2 {
			t.Errorf("handle %d: home [%d,+%d), want [%d,+2)",
				i, h.sel.homeLo, h.sel.homeN, lo)
		}
	}
	// Unsharded handles scope over the whole structure.
	h := mustNew[int](t, WithQueues(8)).Handle()
	if h.sel.homeLo != 0 || h.sel.homeN != 8 {
		t.Errorf("unsharded home = [%d,+%d), want [0,+8)", h.sel.homeLo, h.sel.homeN)
	}
}

// TestLocalBiasPinsInsertsToHomeShard: with p = 1 and no contention, every
// insert from a handle lands inside its home shard — the locality the
// option buys.
func TestLocalBiasPinsInsertsToHomeShard(t *testing.T) {
	mq := mustNew[int](t, WithQueues(8), WithShards(4), WithLocalBias(1), WithSeed(51))
	h := mq.Handle() // home shard 0 = queues [0,2)
	for i := 0; i < 64; i++ {
		h.Insert(uint64(i), i)
	}
	var home, foreign int64
	for i := range mq.snapshot().queues {
		if c := mq.snapshot().queues[i].count; i < 2 {
			home += c
		} else {
			foreign += c
		}
	}
	if home != 64 || foreign != 0 {
		t.Errorf("home shard holds %d, foreign shards %d; want 64/0", home, foreign)
	}
}

// TestLocalBiasOneStillFindsForeignElements: liveness of the global
// fallback. A fully home-biased handle whose home shard is empty must still
// retrieve elements that live only in foreign shards, instead of spinning
// on its empty shard forever.
func TestLocalBiasOneStillFindsForeignElements(t *testing.T) {
	mq := mustNew[int](t, WithQueues(8), WithShards(4), WithLocalBias(1), WithSeed(53))
	a := mq.Handle() // home shard 0
	b := mq.Handle() // home shard 1
	const n = 200
	for i := 0; i < n; i++ {
		b.Insert(uint64(i), i) // all elements land in shard 1
	}
	for i := 0; i < n; i++ {
		if _, _, ok := a.DeleteMin(); !ok {
			t.Fatalf("pop %d: home-biased handle could not reach foreign shard", i)
		}
	}
	if _, _, ok := a.DeleteMin(); ok {
		t.Error("extra element after full drain")
	}
	if mq.Len() != 0 {
		t.Errorf("Len = %d after full drain", mq.Len())
	}
}

// TestShardedMultisetPreservation: sharding must never lose or duplicate
// elements, across bias levels, batch and single operations.
func TestShardedMultisetPreservation(t *testing.T) {
	for _, bias := range []float64{0, 0.5, 0.9, 1} {
		mq := mustNew[int](t, WithQueues(8), WithShards(4), WithLocalBias(bias), WithSeed(57))
		h := mq.Handle()
		const n = 4096
		keys := make([]uint64, 16)
		vals := make([]int, 16)
		for i := 0; i < n/2; i++ {
			h.Insert(uint64(i%313), i)
		}
		for i := 0; i < n/2; i += 16 {
			for j := range keys {
				keys[j] = uint64((i + j) % 127)
			}
			h.InsertBatch(keys, vals)
		}
		count := 0
		for {
			got := h.DeleteMinBatch(keys, vals, 16)
			if got == 0 {
				break
			}
			count += got
		}
		if count != n {
			t.Fatalf("bias=%v: recovered %d of %d", bias, count, n)
		}
	}
}

// TestShardedConcurrent: concurrent balanced insert/delete through sharded
// handles stays exact in count, with handles homed on different shards.
func TestShardedConcurrent(t *testing.T) {
	mq := mustNew[uint64](t, WithQueues(8), WithShards(4), WithLocalBias(0.9), WithSeed(59))
	const workers = 4
	const per = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := mq.Handle()
			for i := 0; i < per; i++ {
				h.Insert(uint64(w*per+i), uint64(w))
			}
			for i := 0; i < per; i++ {
				if _, _, ok := h.DeleteMin(); !ok {
					t.Error("unexpected empty")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if mq.Len() != 0 {
		t.Fatalf("Len = %d after balanced ops", mq.Len())
	}
}

// TestShardedAtomicMode: the distributionally linearizable mode composes
// with sharding (the same selector runs under the global lock).
func TestShardedAtomicMode(t *testing.T) {
	mq := mustNew[int](t, WithQueues(8), WithShards(2), WithLocalBias(0.9),
		WithAtomic(true), WithSeed(61))
	h := mq.Handle()
	const n = 1000
	for i := 0; i < n; i++ {
		h.Insert(uint64(i), i)
	}
	for i := 0; i < n; i++ {
		if _, _, ok := h.DeleteMin(); !ok {
			t.Fatalf("pop %d failed", i)
		}
	}
	if _, _, ok := h.DeleteMin(); ok {
		t.Error("extra element")
	}
}
