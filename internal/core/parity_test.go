package core

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"powerchoice/internal/xrand"
)

// Single-op / batch-op accounting parity: Insert vs InsertBatch and
// DeleteMin vs DeleteMinBatch run through the same selector
// (lockForInsert / lockNonEmptyQueue), so for any obstacle — a lost
// try-lock, a queue drained behind a stale cached top, a sampled pair whose
// cached tops both read empty — both paths must report identical
// lockFails / emptyScans deltas. Before the extraction these four paths
// carried hand-copied accounting that had already drifted once.
//
// Each obstacle sits on the queue(s) the handle samples next, found by
// replaying a clone of its random source: the default configuration draws
// one Intn(n) per Insert and one TwoDistinct32(n) per DeleteMin, with no
// coin flip (TestDefaultConfigFlipsNoCoins). Each case also asserts that its
// counter moved, so an arrangement the draw misses cannot pass by comparing
// two zeros.

const parityQueues = 4

// parityDeltas is one operation's effect on the handle's obstacle counters.
type parityDeltas struct {
	lockFails, emptyScans int64
	ok                    bool
}

// parityArrange places an obstacle in a fresh MultiQueue before h's
// operation and returns an optional cleanup.
type parityArrange func(t *testing.T, mq *MultiQueue[int], h *Handle[int]) (cleanup func())

// runParity runs op once against a freshly arranged MultiQueue and handle and
// reports the counter deltas. Every run builds the same structure and the
// same handle stream, so the single and batch variants meet the same draws.
func runParity(t *testing.T, arrange parityArrange, op func(h *Handle[int]) bool) parityDeltas {
	t.Helper()
	mq := mustNew[int](t, WithQueues(parityQueues), WithSeed(67))
	h := mq.Handle()
	if cleanup := arrange(t, mq, h); cleanup != nil {
		defer cleanup()
	}
	before := h.Stats()
	ok := op(h)
	after := h.Stats()
	return parityDeltas{
		lockFails:  after.LockFails - before.LockFails,
		emptyScans: after.EmptyScans - before.EmptyScans,
		ok:         ok,
	}
}

// nextPair replays the queue pair h's next DeleteMin samples.
func nextPair(h *Handle[int]) (int, int) {
	return h.sel.rng.Clone().TwoDistinct32(parityQueues)
}

// fillExcept pushes one element with the given key onto every queue not in
// skip, so any draw that avoids the arranged obstacle completes.
func fillExcept(mq *MultiQueue[int], key uint64, skip ...int) {
	for i := range mq.queues {
		if !slices.Contains(skip, i) {
			mq.queues[i].push(key, int(key))
		}
	}
}

// holdLock takes queue i's lock for the duration of the operation.
func holdLock(t *testing.T, mq *MultiQueue[int], i int) func() {
	t.Helper()
	q := &mq.queues[i]
	if !q.lock.TryLock() {
		t.Fatalf("could not take queue %d's lock", i)
	}
	return q.lock.Unlock
}

// checkMoved fails unless exactly the counter the case names moved ("" for
// the no-obstacle case: neither).
func checkMoved(t *testing.T, d parityDeltas, moves string) {
	t.Helper()
	if got, want := d.lockFails > 0, moves == "lockFails"; got != want {
		t.Errorf("lockFails delta = %d; moved = %v, want %v", d.lockFails, got, want)
	}
	if got, want := d.emptyScans > 0, moves == "emptyScans"; got != want {
		t.Errorf("emptyScans delta = %d; moved = %v, want %v", d.emptyScans, got, want)
	}
}

func TestSingleAndBatchObstacleAccountingParity(t *testing.T) {
	// Every arrangement leaves an element on a queue the obstacle does not
	// touch, so both variants finish and the deltas measure only the
	// obstacle.
	deleteCases := []struct {
		name    string
		moves   string
		arrange parityArrange
	}{
		{
			name: "no obstacle",
			arrange: func(t *testing.T, mq *MultiQueue[int], h *Handle[int]) func() {
				fillExcept(mq, 9)
				return nil
			},
		},
		{
			name:  "lock held on winner",
			moves: "lockFails",
			arrange: func(t *testing.T, mq *MultiQueue[int], h *Handle[int]) func() {
				i, _ := nextPair(h)
				fillExcept(mq, 9, i)
				mq.queues[i].push(1, 1) // the lower top wins the pair
				return holdLock(t, mq, i)
			},
		},
		{
			name:  "stale top on winner",
			moves: "emptyScans",
			arrange: func(t *testing.T, mq *MultiQueue[int], h *Handle[int]) func() {
				i, _ := nextPair(h)
				fillExcept(mq, 9, i)
				mq.queues[i].top.Store(3) // stale: the heap is empty
				return nil
			},
		},
		{
			name:  "sampled pair all empty",
			moves: "emptyScans",
			arrange: func(t *testing.T, mq *MultiQueue[int], h *Handle[int]) func() {
				i, j := nextPair(h)
				fillExcept(mq, 9, i, j)
				return nil
			},
		},
	}
	deleteOne := func(h *Handle[int]) bool {
		_, _, ok := h.DeleteMin()
		return ok
	}
	deleteBatch := func(h *Handle[int]) bool {
		return h.DeleteMinBatch(make([]uint64, 1), make([]int, 1), 1) > 0
	}
	for _, c := range deleteCases {
		t.Run("delete/"+c.name, func(t *testing.T) {
			single := runParity(t, c.arrange, deleteOne)
			batch := runParity(t, c.arrange, deleteBatch)
			if single != batch {
				t.Errorf("DeleteMin and DeleteMinBatch diverge:\nsingle: %+v\nbatch:  %+v",
					single, batch)
			}
			if !single.ok {
				t.Error("operation did not complete with an element available")
			}
			checkMoved(t, single, c.moves)
		})
	}

	insertCases := []struct {
		name    string
		moves   string
		arrange parityArrange
	}{
		{
			name: "no obstacle",
			arrange: func(t *testing.T, mq *MultiQueue[int], h *Handle[int]) func() {
				return nil
			},
		},
		{
			name:  "lock held on drawn queue",
			moves: "lockFails",
			arrange: func(t *testing.T, mq *MultiQueue[int], h *Handle[int]) func() {
				return holdLock(t, mq, h.sel.rng.Clone().Intn(parityQueues))
			},
		},
	}
	insertOne := func(h *Handle[int]) bool {
		h.Insert(7, 7)
		return true
	}
	insertBatch := func(h *Handle[int]) bool {
		h.InsertBatch([]uint64{7}, []int{7})
		return true
	}
	for _, c := range insertCases {
		t.Run("insert/"+c.name, func(t *testing.T) {
			single := runParity(t, c.arrange, insertOne)
			batch := runParity(t, c.arrange, insertBatch)
			if single != batch {
				t.Errorf("Insert and InsertBatch diverge:\nsingle: %+v\nbatch:  %+v",
					single, batch)
			}
			checkMoved(t, single, c.moves)
		})
	}
}

// TestDefaultConfigPopSequencePinned pins the exact behaviour of the default
// configuration and of the two non-default selection paths under a fixed
// seed: three single-handle workloads at WithQueues(8), WithSeed(23), each
// checked against a constant FNV-1a digest of its popped keys
// (little-endian) plus the final HandleStats and residual Len. The default
// rows run with no further option; the β = 0.75 rows draw the β coin per
// deletion, and the atomic rows select under the global lock
// (lockNonEmptyAtomic). A single handle never loses a TryLock, so every run
// is deterministic; any change to a random draw, the selection rule, the
// batch paths or the obstacle accounting moves a constant. A change that
// means to keep behaviour must keep every constant.
func TestDefaultConfigPopSequencePinned(t *testing.T) {
	type pinned struct {
		digest uint64
		stats  HandleStats
		len    int
	}
	configs := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"beta 0.75", []Option{WithBeta(0.75)}},
		{"atomic", []Option{WithAtomic(true)}},
		{"atomic beta 0.75", []Option{WithAtomic(true), WithBeta(0.75)}},
	}
	workloads := []struct {
		name string
		run  func(t *testing.T, h *Handle[int]) []uint64
		want map[string]pinned
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
			want: map[string]pinned{
				"default": {
					digest: 0x01523dba354da726,
					stats:  HandleStats{Inserts: 4096, Deletes: 2048},
					len:    2048,
				},
				"beta 0.75": {
					digest: 0xbd80421b002a3204,
					stats:  HandleStats{Inserts: 4096, Deletes: 2048},
					len:    2048,
				},
				"atomic": {
					digest: 0x01523dba354da726,
					stats:  HandleStats{Inserts: 4096, Deletes: 2048},
					len:    2048,
				},
				"atomic beta 0.75": {
					digest: 0xbd80421b002a3204,
					stats:  HandleStats{Inserts: 4096, Deletes: 2048},
					len:    2048,
				},
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
			want: map[string]pinned{
				"default": {
					digest: 0x212b2b806e333296,
					stats:  HandleStats{Inserts: 4096, Deletes: 4096, EmptyScans: 15},
					len:    0,
				},
				"beta 0.75": {
					digest: 0xf25bc3a1ef79e962,
					stats:  HandleStats{Inserts: 4096, Deletes: 4096, EmptyScans: 19},
					len:    0,
				},
				"atomic": {
					digest: 0x212b2b806e333296,
					stats:  HandleStats{Inserts: 4096, Deletes: 4096, EmptyScans: 15},
					len:    0,
				},
				"atomic beta 0.75": {
					digest: 0x460941970157906e,
					stats:  HandleStats{Inserts: 4096, Deletes: 4096, EmptyScans: 21},
					len:    0,
				},
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
			want: map[string]pinned{
				"default": {
					digest: 0x8115f165861de71a,
					stats:  HandleStats{Inserts: 2560, Deletes: 2420, EmptyScans: 54},
					len:    140,
				},
				"beta 0.75": {
					digest: 0xdef0dadfdcd3d345,
					stats:  HandleStats{Inserts: 2560, Deletes: 2451, EmptyScans: 64},
					len:    109,
				},
				"atomic": {
					digest: 0x8115f165861de71a,
					stats:  HandleStats{Inserts: 2560, Deletes: 2420, EmptyScans: 54},
					len:    140,
				},
				"atomic beta 0.75": {
					digest: 0x463fd10233698c31,
					stats:  HandleStats{Inserts: 2560, Deletes: 2428, EmptyScans: 59},
					len:    132,
				},
			},
		},
	}
	for _, c := range configs {
		for _, w := range workloads {
			// The default rows keep their unsuffixed subtest names.
			name := w.name
			if c.name != "default" {
				name += " (" + c.name + ")"
			}
			t.Run(name, func(t *testing.T) {
				want, ok := w.want[c.name]
				if !ok {
					t.Fatalf("no pinned constants for config %q", c.name)
				}
				mq := mustNew[int](t, append([]Option{WithQueues(8), WithSeed(23)}, c.opts...)...)
				h := mq.Handle()
				pops := w.run(t, h)
				d := fnv.New64a()
				var b [8]byte
				for _, k := range pops {
					binary.LittleEndian.PutUint64(b[:], k)
					d.Write(b[:])
				}
				if got := d.Sum64(); got != want.digest {
					t.Errorf("pop-sequence digest = %#016x, want %#016x", got, want.digest)
				}
				if got := h.Stats(); got != want.stats {
					t.Errorf("stats = %+v, want %+v", got, want.stats)
				}
				if got := mq.Len(); got != want.len {
					t.Errorf("Len = %d, want %d", got, want.len)
				}
			})
		}
	}
}
