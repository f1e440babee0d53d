package pqueue

// daryDegree is the fan-out of DAryHeap. Four children per node keeps the
// tree shallow and each child group inside one cache line of keys, the same
// trade-off as the boost d-ary heaps used by the paper's implementation.
const daryDegree = 4

// DAryHeap is a flat 4-ary min-heap. It backs every queue of the
// MultiQueue because pops touch fewer levels than a binary heap at the cost
// of a slightly wider comparison per level.
//
// Keys and values live in parallel slices rather than one []Item: the sift
// loops compare only keys, and the split layout packs a full child group
// into 32 contiguous bytes — one cache line holds two groups — where the
// interleaved layout made every 4-child scan pull 64+ bytes. Values are
// touched once per moved element, not per compared element.
type DAryHeap[V any] struct {
	keys []uint64
	vals []V
}

// NewDAryHeap returns an empty 4-ary heap.
func NewDAryHeap[V any]() *DAryHeap[V] {
	return &DAryHeap[V]{}
}

// Len returns the number of stored elements.
//
//powervet:hotpath
func (h *DAryHeap[V]) Len() int { return len(h.keys) }

// Push inserts an element.
//
//powervet:hotpath
func (h *DAryHeap[V]) Push(key uint64, value V) {
	//powervet:allow hotpath append growth is amortized O(1) and reaches steady state once the heap hits its working size (pinned by the AllocsPerRun tests)
	h.keys = append(h.keys, key)
	//powervet:allow hotpath parallel-slice growth, see above
	h.vals = append(h.vals, value)
	h.siftUp(len(h.keys) - 1)
}

// PeekMin returns the minimum element without removing it.
func (h *DAryHeap[V]) PeekMin() (Item[V], bool) {
	if len(h.keys) == 0 {
		return Item[V]{}, false
	}
	return Item[V]{Key: h.keys[0], Value: h.vals[0]}, true
}

// MinKey returns the minimum key without copying the value, for cached-top
// refreshes that only need the key.
//
//powervet:hotpath
func (h *DAryHeap[V]) MinKey() (uint64, bool) {
	if len(h.keys) == 0 {
		return 0, false
	}
	return h.keys[0], true
}

// PopMin removes and returns the minimum element.
//
//powervet:hotpath
func (h *DAryHeap[V]) PopMin() (Item[V], bool) {
	if len(h.keys) == 0 {
		return Item[V]{}, false
	}
	top := Item[V]{Key: h.keys[0], Value: h.vals[0]}
	last := len(h.keys) - 1
	h.keys[0], h.vals[0] = h.keys[last], h.vals[last]
	var zero V
	h.vals[last] = zero
	h.keys = h.keys[:last]
	h.vals = h.vals[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top, true
}

//powervet:hotpath
func (h *DAryHeap[V]) siftUp(i int) {
	keys, vals := h.keys, h.vals
	k, v := keys[i], vals[i]
	for i > 0 {
		parent := (i - 1) / daryDegree
		if keys[parent] <= k {
			break
		}
		keys[i], vals[i] = keys[parent], vals[parent]
		i = parent
	}
	keys[i], vals[i] = k, v
}

// siftDown moves the hole at i down to the item's place. It is the dominant
// cost of PopMin (one full-depth descent per pop), so the child scan is
// tuned: slice headers are hoisted into locals (stores through them would
// otherwise force reloads), the running minimum key lives in a register
// instead of being re-read through keys[small] on every compare, and the
// common full-degree child group is unrolled behind a single 4-element
// window slicing so the four key loads carry one bounds check.
//
//powervet:hotpath
func (h *DAryHeap[V]) siftDown(i int) {
	keys, vals := h.keys, h.vals
	n := len(keys)
	k, v := keys[i], vals[i]
	for {
		first := daryDegree*i + 1
		if first >= n {
			break
		}
		small := first
		var smallKey uint64
		if first+daryDegree <= n {
			ch := keys[first : first+daryDegree : first+daryDegree]
			smallKey = ch[0]
			if ck := ch[1]; ck < smallKey {
				small, smallKey = first+1, ck
			}
			if ck := ch[2]; ck < smallKey {
				small, smallKey = first+2, ck
			}
			if ck := ch[3]; ck < smallKey {
				small, smallKey = first+3, ck
			}
		} else {
			smallKey = keys[first]
			for c := first + 1; c < n; c++ {
				if ck := keys[c]; ck < smallKey {
					small, smallKey = c, ck
				}
			}
		}
		if smallKey >= k {
			break
		}
		keys[i], vals[i] = keys[small], vals[small]
		i = small
	}
	keys[i], vals[i] = k, v
}
