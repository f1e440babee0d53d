package jobs

import (
	"math"
	"testing"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/stats"
	"powerchoice/internal/xrand"
)

func TestGenerateValidates(t *testing.T) {
	if _, err := Generate(Spec{Jobs: 0, Classes: 4}); err == nil {
		t.Error("0 jobs accepted")
	}
	if _, err := Generate(Spec{Jobs: 10, Classes: 0}); err == nil {
		t.Error("0 classes accepted")
	}
	if _, err := Generate(Spec{Jobs: 10, Classes: 300}); err == nil {
		t.Error("300 classes accepted")
	}
	w, err := Generate(Spec{Jobs: 1000, Classes: 4, ServiceMean: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Class {
		if int(w.Class[i]) >= 4 {
			t.Fatalf("job %d class %d", i, w.Class[i])
		}
		if w.Service[i] < 1 {
			t.Fatalf("job %d service %d", i, w.Service[i])
		}
	}
}

// TestGenerateServiceMeanExact: service times are uniform on [1, 2M) with
// mean exactly M = ServiceMean. The old sampler drew [1, 2M] (mean M+0.5),
// which would bias every open-system ρ = λ·E[S]/P computed from the nominal
// mean. The empirical mean of a uniform [1, 2M-1] sample of n jobs has
// standard error < M/√(3n), so a 5σ band around M is a tight, deterministic
// check under the fixed seed.
func TestGenerateServiceMeanExact(t *testing.T) {
	for _, m := range []int{1, 2, 8, 64} {
		const n = 400000
		w, err := Generate(Spec{Jobs: n, Classes: 2, ServiceMean: m, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, s := range w.Service {
			if s < 1 || int(s) >= 2*m {
				t.Fatalf("m=%d: service %d outside [1, %d)", m, s, 2*m)
			}
			sum += float64(s)
		}
		mean := sum / n
		tol := 5 * float64(m) / math.Sqrt(3*n)
		if math.Abs(mean-float64(m)) > tol {
			t.Errorf("m=%d: empirical mean %.4f differs from %d by more than %.4f", m, mean, m, tol)
		}
	}
}

// TestKeyOrdering: keys sort by class first, submission order second.
func TestKeyOrdering(t *testing.T) {
	w := &Workload{
		Spec:    Spec{Jobs: 4, Classes: 3},
		Class:   []uint8{2, 0, 1, 0},
		Service: []uint32{1, 1, 1, 1},
	}
	if !(w.Key(1) < w.Key(3) && w.Key(3) < w.Key(2) && w.Key(2) < w.Key(0)) {
		t.Fatalf("key ordering broken: %v %v %v %v", w.Key(0), w.Key(1), w.Key(2), w.Key(3))
	}
}

// TestRunDrainsEveryJobAllImpls: every implementation serves each job
// exactly once and reports well-formed per-class stats.
func TestRunDrainsEveryJobAllImpls(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 4000
	}
	w, err := Generate(Spec{Jobs: n, Classes: 4, ServiceMean: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range pqadapt.Impls() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			q, err := pqadapt.New(impl, 17)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(w, q, 4)
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
	w, err := Generate(Spec{Jobs: 5000, Classes: 8, ServiceMean: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q, err := pqadapt.New(pqadapt.ImplGlobalLock, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inversions != 0 || res.InvWaiting != 0 {
		t.Fatalf("exact single-worker drain reported %d inversions (waiting %d)",
			res.Inversions, res.InvWaiting)
	}
	if _, err := Run(w, nil, 1); err == nil {
		t.Error("nil queue accepted")
	}
}

// TestRunBatchDrainsEveryJob: the batched drain must complete every job
// exactly once and report the batching slack in the executor stats.
func TestRunBatchDrainsEveryJob(t *testing.T) {
	const n = 10000
	w, err := Generate(Spec{Jobs: n, Classes: 4, ServiceMean: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range []pqadapt.Impl{pqadapt.ImplMultiQueue, pqadapt.ImplGlobalLock} {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			q, err := pqadapt.New(impl, 21)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunBatch(w, q, 4, 8)
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
