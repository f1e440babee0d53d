package stats

// Inversions counts pairs (i, j) with i < j and xs[i] > xs[j] via merge
// sort in O(n log n). It is the schedule-quality metric used by the
// examples: the number of priority inversions a relaxed queue produced in
// an execution log.
func Inversions(xs []uint64) int64 {
	if len(xs) < 2 {
		return 0
	}
	work := make([]uint64, len(xs))
	buf := make([]uint64, len(xs))
	copy(work, xs)
	return mergeCount(work, buf)
}

func mergeCount(xs, buf []uint64) int64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(xs[:mid], buf[:mid]) + mergeCount(xs[mid:], buf[mid:])
	// Merge xs[:mid] and xs[mid:] into buf, counting cross inversions.
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if xs[i] <= xs[j] {
			buf[k] = xs[i]
			i++
		} else {
			buf[k] = xs[j]
			j++
			inv += int64(mid - i) // every remaining left element inverts with xs[j]
		}
		k++
	}
	for i < mid {
		buf[k] = xs[i]
		i++
		k++
	}
	for j < n {
		buf[k] = xs[j]
		j++
		k++
	}
	copy(xs, buf[:n])
	return inv
}
