package pqueue

// daryDegree is the fan-out of DAryHeap. Four children per node keeps the
// tree shallow and each child group to 32 contiguous bytes of keys, the same
// trade-off as the boost d-ary heaps used by the paper's implementation.
const daryDegree = 4

// DAryHeap is a flat 4-ary min-heap. Its pops touch fewer levels than a
// binary heap's at the cost of a slightly wider comparison per level.
//
// Keys and values live in parallel slices rather than one []Item: the sift
// loops compare only keys, and the split layout packs a full child group
// into 32 contiguous bytes, where the interleaved layout made every 4-child
// scan pull 64+ bytes. The group of node i starts at key 4i+1, byte 32i+8,
// so on the allocator's 64-byte-aligned arrays every other group straddles
// two cache lines. Values are touched once per moved element, not per
// compared element.
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

// hotParents bounds the parents whose child pick is branch-free: the top
// five levels, (4^5-1)/3 nodes. Their children are keys 1..1364, about
// 11 KB that every pop of the heap walks, so those loads hit cache and a
// mispredicted compare jump would cost more than they do.
const hotParents = 341

// siftDown moves the hole at i down to the item's place. It is the dominant
// cost of PopMin (one full-depth descent per pop), so the child scan is
// tuned: slice headers are hoisted into locals (stores through them would
// otherwise force reloads) and cut to length n, keys to capacity n too, so
// one bounds check covers keys[i] and vals[i] and no register holds
// cap(keys) (holding it made the branch-free pick below spill two keys to
// the stack); the running minimum key lives in a register instead of being
// re-read through keys[small] on every compare; and a full child group is
// read through a single 4-element window slicing so the four key loads
// carry one bounds check.
//
// Parents below hotParents pick the smallest child without a branch: a min
// tournament over the group plus 0/1 masks for its index, which amd64
// lowers to CMOV and SETcc. There the loads hit cache, and random or tied
// keys would mispredict a compare jump at almost every level. Deeper
// parents keep the compare jumps: a correctly predicted jump lets the next
// level's loads start before this level's compares resolve, which hides
// more of a cache miss than the mispredictions cost (a sift branch-free at
// every level measured 1.23-1.29x slower at 2^18 elements per heap,
// EXPERIMENTS.md). Both picks take the first minimal child in index order.
//
//powervet:hotpath
func (h *DAryHeap[V]) siftDown(i int) {
	n := len(h.keys)
	keys, vals := h.keys[:n:n], h.vals[:n]
	k, v := keys[i], vals[i]
	for i < hotParents {
		first := daryDegree*i + 1
		if first+daryDegree > n {
			break
		}
		ch := keys[first : first+daryDegree : first+daryDegree]
		m01, m23 := min(ch[0], ch[1]), min(ch[2], ch[3])
		smallKey := min(m01, m23)
		if smallKey >= k {
			keys[i], vals[i] = k, v
			return
		}
		// The index from 0/1 values: each if sets one value, so each
		// lowers to a SETcc. Strict compares keep a tie on the lower
		// index, and the mask -right picks 2+b3 over b1.
		var b1, b3, right int
		if ch[1] < ch[0] {
			b1 = 1
		}
		if ch[3] < ch[2] {
			b3 = 1
		}
		if m23 < m01 {
			right = 1
		}
		small := first + (b1 ^ (b1^(2+b3))&-right)
		keys[i], vals[i] = smallKey, vals[small]
		i = small
	}
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
