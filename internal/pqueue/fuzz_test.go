package pqueue

import (
	"encoding/binary"
	"sort"
	"testing"

	"powerchoice/internal/xrand"
)

// FuzzDAryHeap runs the input as a program against DAryHeap and checks every
// result and Len against a sorted-slice model. Each op byte's low two bits
// pick Push, PopMin, PeekMin or MinKey. A Push takes its key from the op's
// upper six bits, so duplicate keys are common; the all-ones value instead
// reads a full 64-bit key from the next eight bytes, reaching the extremes.
// Values are push sequence numbers, so a key/value pair that the split
// key and value slices tear apart shows up as a value the model never held
// under that key. The same program also runs on branchyHeap, and every
// PopMin and PeekMin must return its exact (key, value): the model accepts
// any value pushed under the minimum key, so only the reference catches a
// change in which of several tied elements comes out.
func FuzzDAryHeap(f *testing.F) {
	f.Add(tiedProgram())
	f.Fuzz(func(t *testing.T, prog []byte) {
		h := NewDAryHeap[int]()
		ref := &branchyHeap[int]{}
		var model []Item[int] // ascending by key
		// take removes the model entry matching a heap result: its key must
		// be the model minimum and its value one pushed under that key.
		take := func(op int, it Item[int], remove bool) {
			t.Helper()
			if it.Key != model[0].Key {
				t.Fatalf("op %d: key %d, model minimum %d", op, it.Key, model[0].Key)
			}
			for i := 0; i < len(model) && model[i].Key == it.Key; i++ {
				if model[i].Value == it.Value {
					if remove {
						model = append(model[:i], model[i+1:]...)
					}
					return
				}
			}
			t.Fatalf("op %d: value %d was never pushed with key %d", op, it.Value, it.Key)
		}
		pushes := 0
		for i := 0; i < len(prog); i++ {
			op := prog[i]
			switch op & 3 {
			case 0:
				key := uint64(op >> 2)
				if key == 63 && i+8 < len(prog) {
					key = binary.LittleEndian.Uint64(prog[i+1:])
					i += 8
				}
				h.Push(key, pushes)
				ref.Push(key, pushes)
				at := sort.Search(len(model), func(j int) bool { return model[j].Key > key })
				model = append(model, Item[int]{})
				copy(model[at+1:], model[at:])
				model[at] = Item[int]{Key: key, Value: pushes}
				pushes++
			case 1:
				it, ok := h.PopMin()
				if want, _ := ref.PopMin(); it != want {
					t.Fatalf("op %d: PopMin (%d, %d), reference (%d, %d)", i, it.Key, it.Value, want.Key, want.Value)
				}
				if ok != (len(model) > 0) {
					t.Fatalf("op %d: PopMin ok=%v with %d modelled", i, ok, len(model))
				}
				if ok {
					take(i, it, true)
				}
			case 2:
				it, ok := h.PeekMin()
				if want, _ := ref.PeekMin(); it != want {
					t.Fatalf("op %d: PeekMin (%d, %d), reference (%d, %d)", i, it.Key, it.Value, want.Key, want.Value)
				}
				if ok != (len(model) > 0) {
					t.Fatalf("op %d: PeekMin ok=%v with %d modelled", i, ok, len(model))
				}
				if ok {
					take(i, it, false)
				}
			case 3:
				k, ok := h.MinKey()
				if ok != (len(model) > 0) {
					t.Fatalf("op %d: MinKey ok=%v with %d modelled", i, ok, len(model))
				}
				if ok && k != model[0].Key {
					t.Fatalf("op %d: MinKey %d, model minimum %d", i, k, model[0].Key)
				}
			}
			if h.Len() != len(model) {
				t.Fatalf("op %d: Len %d, model %d", i, h.Len(), len(model))
			}
		}
	})
}

// tiedProgram is FuzzDAryHeap's seeded tie case. It pushes 5,000 keys drawn
// mod 7, so nearly every child group holds a tie and the heap is deep
// enough that parents on both sides of hotParents sift. It then pops, peeks
// and pushes in turn, and drains with a peek after every pop.
func tiedProgram() []byte {
	rng := xrand.NewSource(7)
	push := func() byte { return byte(rng.Uint64()%7) << 2 }
	var prog []byte
	for i := 0; i < 5000; i++ {
		prog = append(prog, push())
	}
	for i := 0; i < 2000; i++ {
		prog = append(prog, 1, 2, push())
	}
	for i := 0; i < 5000; i++ {
		prog = append(prog, 1, 2)
	}
	return prog
}
