// Package jobs implements a priority job-server workload for the sched
// executor: a large batch of jobs with priority classes and service times,
// drained by P workers sharing one (relaxed) priority queue — the
// priority-scheduling setting the paper's title refers to, with the
// real-world constraint (cf. Scully & Harchol-Balter, PAPERS.md) that the
// scheduler's queue is itself a contended data structure.
//
// The workload measures what relaxation costs a scheduler: priority
// inversions (a job served while a strictly higher-priority job waits) and
// per-priority-class completion-latency percentiles. The paper's rank bound
// translates directly: if the removal rank is at most r, a popped job can
// be overtaken by at most r higher-priority jobs, so inversion magnitude —
// and hence the latency penalty of the highest classes — is bounded by the
// same O(n/β²) expectation that bounds rank.
package jobs

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"powerchoice/internal/sched"
	"powerchoice/internal/stats"
	"powerchoice/internal/workload"
)

// ClassStats reports one priority class's completion latencies.
type ClassStats struct {
	// Class is the priority class (0 = most urgent).
	Class int
	// Jobs is the number of jobs in the class.
	Jobs int64
	// P50Ms / P99Ms are completion-latency percentiles in milliseconds,
	// measured from drain start to job completion.
	P50Ms float64
	P99Ms float64
	// MeanMs is the mean completion latency in milliseconds.
	MeanMs float64
}

// Result reports one drain run.
type Result struct {
	// Elapsed is the drain wall time (prefill excluded).
	Elapsed time.Duration
	// Inversions counts jobs served while at least one strictly
	// higher-priority job was still waiting in the queue (jobs already
	// being served by another worker do not count). The pending reads are
	// racy by design (a scan per pop); the count is a measure, not a
	// linearizable fact — exactly like the paper's rank methodology.
	Inversions int64
	// InvWaiting sums, over all inverted pops, the number of
	// higher-priority jobs then pending — the inversion magnitude the
	// paper's rank bound caps.
	InvWaiting int64
	// PerClass holds one entry per priority class, ascending.
	PerClass []ClassStats
	// Stats are the executor's counters (EmptyPops > 0 near the drain's
	// end is normal relaxed-emptiness noise).
	Stats sched.Stats
}

// Run prefills the queue with every job of the trace, then drains it with
// `workers` goroutines through the sched executor at bulk size `batch`
// (0 or 1 = unbatched), simulating each job's service time with a spin
// loop. Only the drain is timed. The trace's arrival schedule is ignored:
// every job is waiting from the start, so a drain and an open run of one
// trace serve the same jobs, keyed alike.
//
// Unlike the label-correcting searches, a job server pays for batching in
// scheduling quality, not just wasted work: up to batch−1 jobs sit in each
// worker's local buffer where higher-priority arrivals cannot overtake
// them, and each batch serves its queue's rank-j jobs for j up to batch.
// Empirically the priority-inversion count grows roughly batch-fold (each
// batch element can be inverted against jobs hidden deeper in its own
// batch and in other workers' buffers); bench.TestJobsBatchingInversionBound
// pins a 2·batch multiplicative regression bound at batch=4.
func Run(tr *workload.Trace, q sched.Queue[int32], workers, batch int) (Result, error) {
	if q == nil {
		return Result{}, fmt.Errorf("jobs: nil queue")
	}
	if tr == nil || tr.Jobs() < 1 {
		return Result{}, fmt.Errorf("jobs: drain needs a non-empty workload trace")
	}
	n := tr.Jobs()
	classPending := make([]atomic.Int64, tr.NumClasses())
	for _, c := range tr.Class {
		classPending[c].Add(1)
	}
	completedAt := make([]int64, n) // ns since drain start; one writer per job
	var inversions, invWaiting atomic.Int64

	for i := 0; i < n; i++ {
		q.Insert(tr.Key(i), int32(i))
	}

	start := time.Now()
	task := func(_ uint64, id int32, _ func(uint64, int32)) bool {
		serveJob(int(tr.Class[id]), tr.Service[id], id, classPending, &inversions, &invWaiting)
		completedAt[id] = time.Since(start).Nanoseconds()
		return true
	}
	st := sched.RunConfig(q, sched.Config{Workers: workers, Batch: batch}, task, int64(n))
	elapsed := time.Since(start)

	perClass, _, _ := summarize(tr.NumClasses(), tr.Class, nil, completedAt)
	return Result{
		Elapsed:    elapsed,
		Inversions: inversions.Load(),
		InvWaiting: invWaiting.Load(),
		PerClass:   perClass,
		Stats:      st,
	}, nil
}

// serveJob is the serving path the closed drain and the open run share:
// mark job id dequeued, count a priority inversion if any strictly
// higher-priority job is still pending, and burn the job's service time.
// The decrement happens before the scan so "pending" measures jobs still
// waiting in the queue, not jobs another worker is currently serving —
// otherwise an exact queue with many workers would report inversions for
// the whole of every higher-priority job's service time. The scan is racy
// by design (see Result.Inversions).
func serveJob(c int, service uint32, id int32, classPending []atomic.Int64, inversions, invWaiting *atomic.Int64) {
	classPending[c].Add(-1)
	var waiting int64
	for hc := 0; hc < c; hc++ {
		waiting += classPending[hc].Load()
	}
	if waiting > 0 {
		inversions.Add(1)
		invWaiting.Add(waiting)
	}
	spin(service, uint64(id))
}

// summarize reports a run's latencies in milliseconds, per class and pooled
// over every class: job i, of class class[i], took to[i] − from[i] ns. A job
// whose from[i] is negative never arrived and is left out; a nil from times
// every job from 0. Each sample goes, in job order, into its class's
// exact-length slice of one backing array and into the pooled slice. A
// class's mean is summed in job order, then its slice is sorted once in place
// for both percentiles; the pooled slice is sorted once for its two (0 when
// no job arrived). The pooled slice is an array of its own rather than the
// backing array sorted again: with that one array fewer, perfbench's
// serve-bursty heap sample, taken after each replay, lands before the
// collector's next cycle instead of after it and reads 98.9 MiB, not 68.4
// (EXPERIMENTS.md, "Direct road-network CSR").
func summarize(classes int, class []uint8, from, to []int64) (perClass []ClassStats, p50, p99 float64) {
	counts := make([]int, classes)
	total := 0
	for i, c := range class {
		if from == nil || from[i] >= 0 {
			counts[c]++
			total++
		}
	}
	backing := make([]float64, total)
	all := make([]float64, 0, total)
	lats := make([][]float64, classes)
	off := 0
	for c, k := range counts {
		lats[c] = backing[off : off : off+k]
		off += k
	}
	for i, c := range class {
		var start int64
		if from != nil {
			if start = from[i]; start < 0 {
				continue
			}
		}
		ms := float64(to[i]-start) / 1e6
		lats[c] = append(lats[c], ms)
		all = append(all, ms)
	}
	perClass = make([]ClassStats, classes)
	for c, l := range lats {
		perClass[c] = ClassStats{Class: c, Jobs: int64(len(l))}
		if len(l) > 0 {
			perClass[c].MeanMs = stats.Mean(l)
			sort.Float64s(l)
			perClass[c].P50Ms = stats.SortedPercentile(l, 50)
			perClass[c].P99Ms = stats.SortedPercentile(l, 99)
		}
	}
	if total > 0 {
		sort.Float64s(all)
		p50, p99 = stats.SortedPercentile(all, 50), stats.SortedPercentile(all, 99)
	}
	return perClass, p50, p99
}

// spinSink defeats dead-code elimination of the service loop.
var spinSink uint64

// spin burns `units` iterations of a cheap LCG step, the simulated service
// time.
func spin(units uint32, seed uint64) {
	x := seed
	for i := uint32(0); i < units; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 42 {
		spinSink = x
	}
}
