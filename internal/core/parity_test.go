package core

import (
	"encoding/binary"
	"hash/fnv"
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

// TestDefaultConfigPopSequencePinned pins the default configuration's exact
// behaviour under a fixed seed: three single-handle workloads at
// WithQueues(8), WithSeed(23), each checked against a constant FNV-1a digest
// of its popped keys (little-endian) plus the final HandleStats and residual
// Len. A single handle never loses a TryLock, so the run is deterministic;
// any change to a random draw, the selection rule, the sticky or batch paths
// or the obstacle accounting moves a constant. A change that means to keep
// behaviour must keep every constant.
func TestDefaultConfigPopSequencePinned(t *testing.T) {
	workloads := []struct {
		name   string
		run    func(t *testing.T, h *Handle[int]) []uint64
		digest uint64
		stats  HandleStats
		len    int
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
			digest: 0x01523dba354da726,
			stats:  HandleStats{Inserts: 4096, Deletes: 2048},
			len:    2048,
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
			digest: 0x212b2b806e333296,
			stats:  HandleStats{Inserts: 4096, Deletes: 4096, EmptyScans: 15},
			len:    0,
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
			digest: 0x8115f165861de71a,
			stats:  HandleStats{Inserts: 2560, Deletes: 2420, EmptyScans: 54},
			len:    140,
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			mq := mustNew[int](t, WithQueues(8), WithSeed(23))
			h := mq.Handle()
			pops := w.run(t, h)
			d := fnv.New64a()
			var b [8]byte
			for _, k := range pops {
				binary.LittleEndian.PutUint64(b[:], k)
				d.Write(b[:])
			}
			if got := d.Sum64(); got != w.digest {
				t.Errorf("pop-sequence digest = %#016x, want %#016x", got, w.digest)
			}
			if got := h.Stats(); got != w.stats {
				t.Errorf("stats = %+v, want %+v", got, w.stats)
			}
			if got := mq.Len(); got != w.len {
				t.Errorf("Len = %d, want %d", got, w.len)
			}
		})
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
