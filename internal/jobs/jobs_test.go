package jobs

import (
	"testing"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/stats"
	"powerchoice/internal/workload"
	"powerchoice/internal/xrand"
)

// uniformTrace generates n jobs of `classes` equally weighted classes whose
// services are uniform with the given mean. A drain ignores arrival
// instants, so the rate is arbitrary.
func uniformTrace(t *testing.T, n, classes int, mean float64, seed uint64) *workload.Trace {
	t.Helper()
	spec := &workload.Spec{Name: "uniform", Arrival: workload.ArrivalSpec{Process: workload.ArrivalPoisson}}
	for c := 0; c < classes; c++ {
		spec.Classes = append(spec.Classes, workload.ClassSpec{
			Weight: 1, Service: workload.ServiceSpec{Law: workload.ServiceUniform, Mean: mean},
		})
	}
	tr, err := workload.Generate(spec, seed, n, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestKeyOrdering: keys sort by class first, submission order second.
func TestKeyOrdering(t *testing.T) {
	tr := &workload.Trace{Class: []uint8{2, 0, 1, 0}}
	if !(tr.Key(1) < tr.Key(3) && tr.Key(3) < tr.Key(2) && tr.Key(2) < tr.Key(0)) {
		t.Fatalf("key ordering broken: %v %v %v %v", tr.Key(0), tr.Key(1), tr.Key(2), tr.Key(3))
	}
}

// TestRunDrainsEveryJobAllImpls: every implementation serves each job
// exactly once and reports well-formed per-class stats.
func TestRunDrainsEveryJobAllImpls(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 4000
	}
	tr := uniformTrace(t, n, 4, 4, 9)
	for _, impl := range pqadapt.Impls() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			q, err := pqadapt.New(impl, 17)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(tr, q, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Processed != int64(n) || res.Stats.Stale != 0 {
				t.Fatalf("processed %d stale %d, want %d / 0", res.Stats.Processed, res.Stats.Stale, n)
			}
			var total int64
			for c, cs := range res.PerClass {
				if cs.Class != c {
					t.Fatalf("class order: %+v", res.PerClass)
				}
				if cs.Jobs > 0 && (cs.P99Ms < cs.P50Ms || cs.MeanMs <= 0) {
					t.Fatalf("class %d latencies malformed: %+v", c, cs)
				}
				total += cs.Jobs
			}
			if total != int64(n) {
				t.Fatalf("per-class jobs sum %d, want %d", total, n)
			}
		})
	}
}

// TestExactQueueSingleWorkerHasNoInversions: with an exact queue and one
// worker, service order is strict priority order, so no job is ever served
// while a higher-priority one waits.
func TestExactQueueSingleWorkerHasNoInversions(t *testing.T) {
	tr := uniformTrace(t, 5000, 8, 2, 5)
	q, err := pqadapt.New(pqadapt.ImplGlobalLock, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, q, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inversions != 0 || res.InvWaiting != 0 {
		t.Fatalf("exact single-worker drain reported %d inversions (waiting %d)",
			res.Inversions, res.InvWaiting)
	}
	if _, err := Run(tr, nil, 1, 1); err == nil {
		t.Error("nil queue accepted")
	}
	if _, err := Run(nil, q, 1, 1); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Run(&workload.Trace{Spec: tr.Spec}, q, 1, 1); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestRunBatchDrainsEveryJob: the batched drain must complete every job
// exactly once and report the batching slack in the executor stats.
func TestRunBatchDrainsEveryJob(t *testing.T) {
	const n = 10000
	tr := uniformTrace(t, n, 4, 4, 9)
	for _, impl := range []pqadapt.Impl{pqadapt.ImplMultiQueue, pqadapt.ImplGlobalLock} {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			q, err := pqadapt.New(impl, 21)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(tr, q, 4, 8)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Processed != int64(n) || res.Stats.Stale != 0 {
				t.Fatalf("processed %d stale %d, want %d / 0",
					res.Stats.Processed, res.Stats.Stale, n)
			}
			if res.Stats.BufferedPops == 0 {
				t.Error("batched drain reported no buffered pops")
			}
			var total int64
			for _, cs := range res.PerClass {
				total += cs.Jobs
			}
			if total != int64(n) {
				t.Fatalf("per-class jobs sum %d, want %d", total, n)
			}
		})
	}
}

// TestSummarizeMatchesPercentile: summarize sorts one backing array in place
// where the run modes used to copy and sort per percentile, and must not move
// a bit of what they reported. Jobs arrive in shuffled class order with
// random sojourns, some never arrive, and one class gets no job; every
// per-class and pooled figure must equal stats.Percentile and stats.Mean
// over unsorted copies taken in job order, for open runs (from set) and
// closed runs (from nil) alike.
func TestSummarizeMatchesPercentile(t *testing.T) {
	const n, classes = 5000, 5 // class 3 gets no job
	rng := xrand.NewSource(7)
	class := make([]uint8, n)
	from := make([]int64, n)
	to := make([]int64, n)
	for i := range class {
		class[i] = []uint8{0, 1, 2, 4}[rng.Intn(4)]
		from[i] = int64(rng.Intn(1 << 30))
		if rng.Intn(10) == 0 {
			from[i] = -1 // never injected
		}
		to[i] = from[i] + 1 + int64(rng.Intn(1<<24))
	}
	for _, open := range []bool{true, false} {
		start := from
		if !open {
			start = nil
		}
		want := make([][]float64, classes)
		var all []float64
		for i, c := range class {
			var s int64
			if start != nil {
				if s = start[i]; s < 0 {
					continue
				}
			}
			ms := float64(to[i]-s) / 1e6
			want[c] = append(want[c], ms)
			all = append(all, ms)
		}
		perClass, p50, p99 := summarize(classes, class, start, to)
		if p50 != stats.Percentile(all, 50) || p99 != stats.Percentile(all, 99) {
			t.Errorf("open=%v: pooled p50, p99 = %v, %v, want %v, %v",
				open, p50, p99, stats.Percentile(all, 50), stats.Percentile(all, 99))
		}
		if len(perClass) != classes {
			t.Fatalf("open=%v: %d classes reported, want %d", open, len(perClass), classes)
		}
		for c, cs := range perClass {
			w := ClassStats{Class: c, Jobs: int64(len(want[c]))}
			if len(want[c]) > 0 {
				w.P50Ms = stats.Percentile(want[c], 50)
				w.P99Ms = stats.Percentile(want[c], 99)
				w.MeanMs = stats.Mean(want[c])
			}
			if cs != w {
				t.Errorf("open=%v: class %d = %+v, want %+v", open, c, cs, w)
			}
		}
		if perClass[3].Jobs != 0 {
			t.Errorf("open=%v: class 3 reported %d jobs, want none", open, perClass[3].Jobs)
		}
	}
}
