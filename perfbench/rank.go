package main

import (
	"fmt"
	"slices"

	"powerchoice/internal/fenwick"
	"powerchoice/internal/sched"
)

// rankEvent is one insert or removal of a key, in the order it happened.
type rankEvent struct {
	key    uint64
	insert bool
}

// rankStats summarises removal ranks: rank 1 is the exact minimum of what
// was present.
type rankStats struct {
	mean, p99 float64
	// nonMin is the share of removals with rank > 1.
	nonMin float64
	// waiting is the mean of rank - 1: smaller keys left behind per removal.
	waiting  float64
	removals int
}

// replayRanks replays events against a Fenwick presence tree over the
// distinct keys, as bench.RankQuality does: a removal's rank is one plus the
// number of strictly smaller keys present.
func replayRanks(events []rankEvent) (rankStats, error) {
	keys := make([]uint64, 0, len(events))
	for _, e := range events {
		if e.insert {
			keys = append(keys, e.key)
		}
	}
	slices.Sort(keys)
	distinct := slices.Compact(keys)
	present := fenwick.New(len(distinct))
	ranks := make([]float64, 0, len(events)/2)
	for _, e := range events {
		i, found := slices.BinarySearch(distinct, e.key)
		if e.insert {
			present.Add(i, 1)
			continue
		}
		if !found {
			return rankStats{}, fmt.Errorf("removed key %d was never inserted", e.key)
		}
		smaller := int64(0)
		if i > 0 {
			smaller = present.PrefixSum(i - 1)
		}
		present.Add(i, -1)
		ranks = append(ranks, float64(smaller+1))
	}
	if len(ranks) == 0 {
		return rankStats{}, fmt.Errorf("no removals to rank")
	}
	slices.Sort(ranks)
	st := rankStats{p99: rankPercentile(ranks, 99), removals: len(ranks)}
	var sum float64
	var nonMin int
	for _, r := range ranks {
		sum += r
		if r > 1 {
			nonMin++
		}
	}
	st.mean = sum / float64(len(ranks))
	st.waiting = st.mean - 1
	st.nonMin = float64(nonMin) / float64(len(ranks))
	return st, nil
}

// rankPercentile is the p-th percentile of sorted integer ranks, each rank
// r spread evenly over (r-1, r]. It moves smoothly as mass shifts between
// ranks instead of jumping a whole rank, which matters where the tail is a
// few small integers (serve-bursty's shallow queue).
func rankPercentile(sorted []float64, p float64) float64 {
	k := p / 100 * float64(len(sorted))
	i := min(int(k), len(sorted)-1)
	r := sorted[i]
	lo, _ := slices.BinarySearch(sorted, r)
	hi, _ := slices.BinarySearch(sorted, r+0.5)
	return r - 1 + (k-float64(lo))/float64(hi-lo)
}

// sequentialRank runs the paper's sequential process through one worker
// view: prefill labels 0..depth-1, then ops rounds of DeleteMin followed by
// inserting the next label. Labels only grow, so Theorem 1's O(n) expected
// rank applies at this queue count and depth.
func sequentialRank(view sched.Queue[int32], depth, ops int) (rankStats, error) {
	events := make([]rankEvent, 0, depth+2*ops)
	for i := 0; i < depth; i++ {
		view.Insert(uint64(i), 0)
		events = append(events, rankEvent{uint64(i), true})
	}
	next := uint64(depth)
	for i := 0; i < ops; i++ {
		k, _, ok := view.DeleteMin()
		if !ok {
			return rankStats{}, fmt.Errorf("rank pass: DeleteMin found %d elements empty", depth)
		}
		events = append(events, rankEvent{k, false})
		view.Insert(next, 0)
		events = append(events, rankEvent{next, true})
		next++
	}
	return replayRanks(events)
}

// setRank records the rank metrics.
func setRank(r *report, st rankStats) {
	r.set("rank_mean", st.mean)
	r.set("rank_p99", st.p99)
	r.note("ranks over %d removals: mean %.4f, p99 %.1f, not the minimum %.4f", st.removals, st.mean, st.p99, st.nonMin)
}
