package pqueue

import (
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzDAryHeap runs the input as a program against DAryHeap and checks every
// result and Len against a sorted-slice model. Each op byte's low two bits
// pick Push, PopMin, PeekMin or MinKey. A Push takes its key from the op's
// upper six bits, so duplicate keys are common; the all-ones value instead
// reads a full 64-bit key from the next eight bytes, reaching the extremes.
// Values are push sequence numbers, so a key/value pair that the split
// key and value slices tear apart shows up as a value the model never held
// under that key.
func FuzzDAryHeap(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		h := NewDAryHeap[int]()
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
				at := sort.Search(len(model), func(j int) bool { return model[j].Key > key })
				model = append(model, Item[int]{})
				copy(model[at+1:], model[at:])
				model[at] = Item[int]{Key: key, Value: pushes}
				pushes++
			case 1:
				it, ok := h.PopMin()
				if ok != (len(model) > 0) {
					t.Fatalf("op %d: PopMin ok=%v with %d modelled", i, ok, len(model))
				}
				if ok {
					take(i, it, true)
				}
			case 2:
				it, ok := h.PeekMin()
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
