package pqueue

// branchyHeap is DAryHeap with a sift-down that picks the smallest child
// with compare jumps at every level. It pins the tie order: FuzzDAryHeap
// fails unless both heaps return the same (key, value) from every PopMin
// and PeekMin, so a pick that breaks a tie differently from the first
// minimal child in index order fails it even when every popped key is
// right.
type branchyHeap[V any] struct{ DAryHeap[V] }

func (h *branchyHeap[V]) PopMin() (Item[V], bool) {
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

func (h *branchyHeap[V]) siftDown(i int) {
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
