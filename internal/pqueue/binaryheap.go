package pqueue

// BinaryHeap is a classic slice-backed binary min-heap.
type BinaryHeap[V any] struct {
	items []Item[V]
}

// NewBinaryHeap returns an empty binary heap.
func NewBinaryHeap[V any]() *BinaryHeap[V] {
	return &BinaryHeap[V]{}
}

// Len returns the number of stored elements.
func (h *BinaryHeap[V]) Len() int { return len(h.items) }

// Push inserts an element.
func (h *BinaryHeap[V]) Push(key uint64, value V) {
	h.items = append(h.items, Item[V]{Key: key, Value: value})
	h.siftUp(len(h.items) - 1)
}

// PeekMin returns the minimum element without removing it.
func (h *BinaryHeap[V]) PeekMin() (Item[V], bool) {
	if len(h.items) == 0 {
		return Item[V]{}, false
	}
	return h.items[0], true
}

// PopMin removes and returns the minimum element.
func (h *BinaryHeap[V]) PopMin() (Item[V], bool) {
	if len(h.items) == 0 {
		return Item[V]{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero Item[V]
	h.items[last] = zero // release value for GC
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top, true
}

func (h *BinaryHeap[V]) siftUp(i int) {
	it := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Key <= it.Key {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = it
}

func (h *BinaryHeap[V]) siftDown(i int) {
	n := len(h.items)
	it := h.items[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		small := left
		if right := left + 1; right < n && h.items[right].Key < h.items[left].Key {
			small = right
		}
		if h.items[small].Key >= it.Key {
			break
		}
		h.items[i] = h.items[small]
		i = small
	}
	h.items[i] = it
}
