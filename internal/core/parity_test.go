package core

import (
	"testing"

	"powerchoice/internal/xrand"
)

// Single-op / batch-op accounting parity: Insert vs InsertBatch and
// DeleteMin vs DeleteMinBatch now run through the same selector
// (lockForInsert / lockNonEmptyQueue), so for any obstacle — a contended
// sticky lock, a sticky queue drained behind a stale cached top, an empty
// cached top, a lost slow-path try-lock — both paths must report identical
// lockFails / emptyScans deltas and break (or keep) the sticky streak
// identically. Before the extraction these four paths carried hand-copied
// accounting that had already drifted once (the silent empty-top break).

// parityDeltas runs op against a freshly arranged MultiQueue/handle and
// reports the counter deltas and the post-op sticky state.
type parityDeltas struct {
	lockFails, emptyScans int64
	streakBroken          bool
	ok                    bool
}

func deleteParity(t *testing.T, arrange func(mq *MultiQueue[int], h *Handle[int]) (cleanup func()),
	batched bool) parityDeltas {
	t.Helper()
	mq := mustNew[int](t, WithQueues(4), WithStickiness(16), WithSeed(67))
	h := mq.Handle()
	cleanup := arrange(mq, h)
	if cleanup != nil {
		defer cleanup()
	}
	armed := h.sel.stickyDel
	before := h.Stats()
	var ok bool
	if batched {
		keys := make([]uint64, 1)
		vals := make([]int, 1)
		ok = h.DeleteMinBatch(keys, vals, 1) > 0
	} else {
		_, _, ok = h.DeleteMin()
	}
	after := h.Stats()
	return parityDeltas{
		lockFails:    after.LockFails - before.LockFails,
		emptyScans:   after.EmptyScans - before.EmptyScans,
		streakBroken: armed != nil && h.sel.stickyDel != armed,
		ok:           ok,
	}
}

func insertParity(t *testing.T, arrange func(mq *MultiQueue[int], h *Handle[int]) (cleanup func()),
	batched bool) parityDeltas {
	t.Helper()
	mq := mustNew[int](t, WithQueues(4), WithStickiness(16), WithSeed(67))
	h := mq.Handle()
	cleanup := arrange(mq, h)
	if cleanup != nil {
		defer cleanup()
	}
	armed := h.sel.stickyIns
	before := h.Stats()
	if batched {
		h.InsertBatch([]uint64{7}, []int{7})
	} else {
		h.Insert(7, 7)
	}
	after := h.Stats()
	return parityDeltas{
		lockFails:    after.LockFails - before.LockFails,
		emptyScans:   after.EmptyScans - before.EmptyScans,
		streakBroken: armed != nil && h.sel.stickyIns != armed,
		ok:           true,
	}
}

func TestSingleAndBatchObstacleAccountingParity(t *testing.T) {
	// Every arrange returns the structure to a state where the operation can
	// still complete (an element reachable somewhere), so both variants
	// finish and the deltas measure only the obstacle.
	deleteCases := []struct {
		name    string
		arrange func(mq *MultiQueue[int], h *Handle[int]) func()
	}{
		{
			name: "no obstacle, sticky streak runs",
			arrange: func(mq *MultiQueue[int], h *Handle[int]) func() {
				mq.snapshot().queues[0].push(7, 7)
				mq.snapshot().queues[0].push(8, 8)
				h.sel.stickyDel = mq.snapshot().queues[0]
				h.sel.delLeft = 5
				return nil
			},
		},
		{
			name: "sticky lock contended",
			arrange: func(mq *MultiQueue[int], h *Handle[int]) func() {
				mq.snapshot().queues[0].push(7, 7)
				mq.snapshot().queues[1].push(9, 9)
				h.sel.stickyDel = mq.snapshot().queues[0]
				h.sel.delLeft = 5
				if !mq.snapshot().queues[0].lock.TryLock() {
					t.Fatal("could not contend queue 0")
				}
				return mq.snapshot().queues[0].lock.Unlock
			},
		},
		{
			name: "sticky queue drained behind stale top",
			arrange: func(mq *MultiQueue[int], h *Handle[int]) func() {
				mq.snapshot().queues[0].top.Store(3) // stale: heap actually empty
				mq.snapshot().queues[1].push(9, 9)
				h.sel.stickyDel = mq.snapshot().queues[0]
				h.sel.delLeft = 5
				return func() { mq.snapshot().queues[0].top.Store(emptyTop) }
			},
		},
		{
			name: "sticky queue with empty cached top",
			arrange: func(mq *MultiQueue[int], h *Handle[int]) func() {
				mq.snapshot().queues[1].push(9, 9)
				h.sel.stickyDel = mq.snapshot().queues[0]
				h.sel.delLeft = 5
				return nil
			},
		},
	}
	for _, c := range deleteCases {
		t.Run("delete/"+c.name, func(t *testing.T) {
			single := deleteParity(t, c.arrange, false)
			batch := deleteParity(t, c.arrange, true)
			if single != batch {
				t.Errorf("DeleteMin and DeleteMinBatch diverge:\nsingle: %+v\nbatch:  %+v",
					single, batch)
			}
			if !single.ok {
				t.Error("operation did not complete with an element available")
			}
		})
	}

	insertCases := []struct {
		name    string
		arrange func(mq *MultiQueue[int], h *Handle[int]) func()
	}{
		{
			name: "no obstacle, sticky streak runs",
			arrange: func(mq *MultiQueue[int], h *Handle[int]) func() {
				h.sel.stickyIns = mq.snapshot().queues[0]
				h.sel.insLeft = 5
				return nil
			},
		},
		{
			name: "sticky lock contended",
			arrange: func(mq *MultiQueue[int], h *Handle[int]) func() {
				h.sel.stickyIns = mq.snapshot().queues[0]
				h.sel.insLeft = 5
				if !mq.snapshot().queues[0].lock.TryLock() {
					t.Fatal("could not contend queue 0")
				}
				return mq.snapshot().queues[0].lock.Unlock
			},
		},
	}
	for _, c := range insertCases {
		t.Run("insert/"+c.name, func(t *testing.T) {
			single := insertParity(t, c.arrange, false)
			batch := insertParity(t, c.arrange, true)
			if single != batch {
				t.Errorf("Insert and InsertBatch diverge:\nsingle: %+v\nbatch:  %+v",
					single, batch)
			}
		})
	}
}

// Combining on/off parity: without contention the combining machinery must be
// perfectly inert. A single-threaded handle never loses a TryLock, so it never
// publishes, and a combining-enabled run must be step-for-step identical to a
// plain run under the same seed — same pop sequence (stronger than multiset
// identity), same obstacle accounting, same residual Len — with the combining
// counters pinned at zero. Any divergence means the staging path leaked into
// the uncontended fast path.
func TestCombiningParity(t *testing.T) {
	workloads := []struct {
		name string
		run  func(t *testing.T, h *Handle[int]) []uint64
	}{
		{
			name: "alternating mixed",
			run: func(t *testing.T, h *Handle[int]) []uint64 {
				rng := xrand.NewSource(11)
				for i := 0; i < 2048; i++ {
					h.Insert(rng.Uint64()>>1, i)
				}
				var pops []uint64
				for i := 0; i < 2048; i++ {
					h.Insert(rng.Uint64()>>1, i)
					k, _, ok := h.DeleteMin()
					if !ok {
						t.Fatal("mixed phase drained a prefilled structure")
					}
					pops = append(pops, k)
				}
				return pops
			},
		},
		{
			name: "fill then drain",
			run: func(t *testing.T, h *Handle[int]) []uint64 {
				rng := xrand.NewSource(13)
				for i := 0; i < 4096; i++ {
					h.Insert(rng.Uint64()>>1, i)
				}
				var pops []uint64
				for {
					k, _, ok := h.DeleteMin()
					if !ok {
						return pops
					}
					pops = append(pops, k)
				}
			},
		},
		{
			name: "batch and single mix",
			run: func(t *testing.T, h *Handle[int]) []uint64 {
				rng := xrand.NewSource(17)
				const k = 4
				keys := make([]uint64, k)
				vals := make([]int, k)
				var pops []uint64
				for round := 0; round < 512; round++ {
					for j := range keys {
						keys[j] = rng.Uint64() >> 1
					}
					h.InsertBatch(keys, vals)
					h.Insert(rng.Uint64()>>1, round)
					if key, _, ok := h.DeleteMin(); ok {
						pops = append(pops, key)
					}
					n := h.DeleteMinBatch(keys, vals, k)
					pops = append(pops, keys[:n]...)
				}
				return pops
			},
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			runOne := func(combining bool) ([]uint64, HandleStats, int) {
				mq := mustNew[int](t, WithQueues(8), WithSeed(23), WithCombining(combining))
				h := mq.Handle()
				pops := w.run(t, h)
				return pops, h.Stats(), mq.Len()
			}
			offPops, offStats, offLen := runOne(false)
			onPops, onStats, onLen := runOne(true)
			if onStats.CombineWaits != 0 || onStats.CombinedOps != 0 {
				t.Errorf("single-threaded combining run published: waits=%d combined=%d, want 0/0",
					onStats.CombineWaits, onStats.CombinedOps)
			}
			if len(offPops) != len(onPops) {
				t.Fatalf("pop counts diverge: off=%d on=%d", len(offPops), len(onPops))
			}
			for i := range offPops {
				if offPops[i] != onPops[i] {
					t.Fatalf("pop %d diverges: off=%d on=%d", i, offPops[i], onPops[i])
				}
			}
			if offLen != onLen {
				t.Errorf("residual Len diverges: off=%d on=%d", offLen, onLen)
			}
			// With the combining-only counters both zero, the full accounting
			// structs must agree field for field.
			if offStats != onStats {
				t.Errorf("accounting diverges:\noff: %+v\non:  %+v", offStats, onStats)
			}
		})
	}
}

// popViaRing routes one delete-min through q's publication ring — the
// deterministic single-threaded equivalent of remote combining: publish the
// request, take the lock, and let the release-side drain resolve it.
func popViaRing(t *testing.T, h *Handle[int]) (uint64, bool) {
	t.Helper()
	q := h.sel.sampleDeleteQueue(h.sel.flipBeta())
	if q == nil {
		return 0, false
	}
	sl := q.comb.grab()
	if sl == nil {
		t.Fatal("publication ring full with no publishers")
	}
	sl.state.Store(slotDelete)
	q.lock.Lock()
	q.unlock()
	if sl.state.Load() != slotDone {
		t.Fatal("drain left a published delete unresolved")
	}
	key, ok := sl.key, sl.ok
	sl.val = 0
	sl.state.Store(slotFree)
	return key, ok
}

// TestCombiningRankSlackWithinBatchedBound: a combined delete-min takes its
// queue's exact minimum at apply time, so routing pops through the ring is
// distributed like the same pop winning the lock a moment later and adds no
// rank slack beyond timing (combine.go). Pin that against the documented
// PR 3 batched bound with k = combineSlots — the drain absorbs at most
// combineSlots ops per release, so the batched slack is the natural ceiling
// and combining must sit far below it.
func TestCombiningRankSlackWithinBatchedBound(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const (
		queues = 8
		m      = 20000
	)
	meanRank := func(viaRing bool) float64 {
		mq := mustNew[int](t, WithQueues(queues), WithSeed(37), WithCombining(true))
		h := mq.Handle()
		for i := 0; i < m; i++ {
			h.Insert(uint64(i), i)
		}
		present := make([]bool, m)
		for i := range present {
			present[i] = true
		}
		var sum float64
		for i := 0; i < m/2; i++ {
			var k uint64
			var ok bool
			if viaRing {
				k, ok = popViaRing(t, h)
			}
			if !ok {
				// All sampled tops empty for the ring route (or viaRing
				// false): the direct path shares its selection rule.
				if k, _, ok = h.DeleteMin(); !ok {
					t.Fatal("structure drained early")
				}
			}
			rank := 0
			for l := 0; l <= int(k); l++ {
				if present[l] {
					rank++
				}
			}
			present[k] = false
			sum += float64(rank)
		}
		return sum / float64(m/2)
	}
	base := meanRank(false)
	combined := meanRank(true)
	k := float64(combineSlots)
	slack := (k - 1) + float64(queues)*(k-1)/2 // (k−1)·H + n·(k−1)/2 at H=1
	bound := (base + slack) * 1.5
	t.Logf("mean rank: direct %.2f, via ring %.2f (batched-bound ceiling %.2f)",
		base, combined, bound)
	if combined > bound {
		t.Errorf("combined mean rank %.2f exceeds the batched slack bound %.2f (base %.2f + slack %.2f, ×1.5 headroom)",
			combined, bound, base, slack)
	}
}

// TestParityStreakSurvivesSuccess: the unobstructed sticky case must NOT
// break the streak on either path, and both must consume exactly one unit
// of it.
func TestParityStreakSurvivesSuccess(t *testing.T) {
	for _, batched := range []bool{false, true} {
		mq := mustNew[int](t, WithQueues(4), WithStickiness(16), WithSeed(69))
		h := mq.Handle()
		mq.snapshot().queues[0].push(7, 7)
		mq.snapshot().queues[0].push(8, 8)
		h.sel.stickyDel = mq.snapshot().queues[0]
		h.sel.delLeft = 5
		if batched {
			keys := make([]uint64, 1)
			vals := make([]int, 1)
			if h.DeleteMinBatch(keys, vals, 1) != 1 {
				t.Fatal("batch pop failed")
			}
		} else if _, _, ok := h.DeleteMin(); !ok {
			t.Fatal("pop failed")
		}
		if h.sel.stickyDel != mq.snapshot().queues[0] || h.sel.delLeft != 4 {
			t.Errorf("batched=%v: streak = (%p, %d), want (queue0, 4)",
				batched, h.sel.stickyDel, h.sel.delLeft)
		}
	}
}
