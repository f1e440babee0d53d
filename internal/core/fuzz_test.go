package core

import (
	"math"
	"testing"
)

// FuzzHandleOps runs the input as a program of operations on one Handle and
// checks every result against a multiset model of (key, id) pairs, where id
// is the insert's sequence number and travels as the value. The first byte
// picks the queue count (1 + low four bits) and atomic mode (bit 4). Each
// later op byte's low three bits pick the operation and its upper five bits
// its argument:
//
//	0, 1  Insert, key from the upper bits
//	2     InsertBatch of 1–8 elements, keys from the upper bits of the next bytes
//	3, 4  DeleteMin
//	5, 6  DeleteMinBatch with k = 1–8
//	7     MultiQueue.Resize to 1–16 queues
//
// A key of 31 is MaxUint64, which Insert clamps to MaxUint64−1, and 30 is
// MaxUint64−1 itself, so the model must apply the clamp and a clamped key
// can tie with an unclamped one. Every pop must return a pair the model
// holds, exactly once, and each batch's keys must ascend. On one goroutine
// emptiness is exact: a pop fails if and only if the model is empty. A
// Resize below Choices must be refused and leave the topology unchanged.
// After every operation, Len and the handle's Inserts − Deletes must equal
// the model's size.
func FuzzHandleOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		mq, err := New[int](WithQueues(1+int(prog[0]&15)), WithAtomic(prog[0]&16 != 0), WithSeed(uint64(prog[0])))
		if err != nil {
			t.Fatal(err)
		}
		h := mq.Handle()
		choices := mq.Config().Choices
		model := map[int]uint64{} // id → clamped key
		ids := 0
		insert := func(key uint64) (uint64, int) {
			id := ids
			ids++
			model[id] = min(key, math.MaxUint64-1)
			return key, id
		}
		// take removes a popped pair from the model.
		take := func(op int, key uint64, id int) {
			t.Helper()
			want, ok := model[id]
			if !ok {
				t.Fatalf("op %d: popped id %d, which the model does not hold", op, id)
			}
			if key != want {
				t.Fatalf("op %d: popped id %d with key %d, inserted with key %d", op, id, key, want)
			}
			delete(model, id)
		}
		var keys [8]uint64
		var vals [8]int
		for i := 1; i < len(prog); i++ {
			op, arg := prog[i]&7, prog[i]>>3
			switch op {
			case 0, 1:
				h.Insert(insert(fuzzKey(arg)))
			case 2:
				m := min(1+int(arg&7), len(prog)-1-i)
				if m == 0 {
					continue
				}
				for j := range m {
					keys[j], vals[j] = insert(fuzzKey(prog[i+1+j] >> 3))
				}
				i += m
				h.InsertBatch(keys[:m], vals[:m])
			case 3, 4:
				key, id, ok := h.DeleteMin()
				if ok != (len(model) > 0) {
					t.Fatalf("op %d: DeleteMin ok=%v with %d modelled", i, ok, len(model))
				}
				if ok {
					take(i, key, id)
				}
			case 5, 6:
				k := 1 + int(arg&7)
				n := h.DeleteMinBatch(keys[:], vals[:], k)
				if n < 0 || n > k {
					t.Fatalf("op %d: DeleteMinBatch(k=%d) returned %d", i, k, n)
				}
				if (n > 0) != (len(model) > 0) {
					t.Fatalf("op %d: DeleteMinBatch returned %d with %d modelled", i, n, len(model))
				}
				for j := range n {
					if j > 0 && keys[j] < keys[j-1] {
						t.Fatalf("op %d: batch keys %v not ascending", i, keys[:n])
					}
					take(i, keys[j], vals[j])
				}
			case 7:
				queues, epoch := mq.NumQueues(), mq.Epoch()
				to := 1 + int(arg&15)
				err := mq.Resize(to)
				if (err != nil) != (to < choices) {
					t.Fatalf("op %d: Resize(%d) with %d choices returned %v", i, to, choices, err)
				}
				if err != nil && (mq.NumQueues() != queues || mq.Epoch() != epoch) {
					t.Fatalf("op %d: refused Resize(%d) moved %d queues at epoch %d to %d at %d",
						i, to, queues, epoch, mq.NumQueues(), mq.Epoch())
				}
				if err == nil && mq.NumQueues() != to {
					t.Fatalf("op %d: Resize(%d) left %d queues", i, to, mq.NumQueues())
				}
			}
			if got := mq.Len(); got != len(model) {
				t.Fatalf("op %d: Len %d, model %d", i, got, len(model))
			}
			if st := h.Stats(); st.Inserts-st.Deletes != int64(len(model)) {
				t.Fatalf("op %d: Inserts−Deletes = %d−%d, model %d", i, st.Inserts, st.Deletes, len(model))
			}
		}
	})
}

// fuzzKey maps an op argument to a key: 31 is the sentinel MaxUint64, which
// Insert clamps, 30 is the clamp's target MaxUint64−1, and the rest are
// themselves.
func fuzzKey(arg byte) uint64 {
	switch arg {
	case 31:
		return math.MaxUint64
	case 30:
		return math.MaxUint64 - 1
	}
	return uint64(arg)
}
