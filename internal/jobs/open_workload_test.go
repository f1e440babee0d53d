package jobs

import (
	"testing"
	"time"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/workload"
)

// TestDeriveSampleEveryDeadlineBounded pins the sampling-period derivation,
// in particular the deadline fix: a deadline shorter than the nominal
// jobs/rate window must bound the window, or deadline-cut runs sample
// against an injection window that never happens.
func TestDeriveSampleEveryDeadlineBounded(t *testing.T) {
	for _, tc := range []struct {
		name     string
		jobs     int64
		rate     float64
		deadline time.Duration
		want     time.Duration
	}{
		// 10k jobs at 10k/s: a 1s window, 1s/256 ≈ 3.9ms.
		{"nominal", 10000, 10000, 0, time.Second / 256},
		// The deadline-bounded case that motivated the fix: a 2^30-job quota
		// at 50k/s is a ~6-hour nominal window (clamped to 100ms), but the
		// 2s deadline is the real window — derive from it.
		{"deadline-bounds", 1 << 30, 50000, 2 * time.Second, 2 * time.Second / 256},
		// A deadline longer than the window changes nothing.
		{"deadline-loose", 10000, 10000, time.Hour, time.Second / 256},
		// Clamps: tiny windows floor at 100µs, huge ones cap at 100ms.
		{"floor", 100, 1e7, 0, 100 * time.Microsecond},
		{"cap", 1 << 30, 1000, 0, 100 * time.Millisecond},
	} {
		if got := deriveSampleEvery(tc.jobs, tc.rate, tc.deadline); got != tc.want {
			t.Errorf("%s: deriveSampleEvery(%d, %g, %v) = %v, want %v",
				tc.name, tc.jobs, tc.rate, tc.deadline, got, tc.want)
		}
	}
}

// TestRunOpenResultRecordsSampleEvery: the derived period must surface in
// OpenResult so reports can interpret the QLen timeseries' time axis.
func TestRunOpenResultRecordsSampleEvery(t *testing.T) {
	spec, err := workload.Preset("poisson")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(spec, 5, 2000, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := pqadapt.New(pqadapt.ImplMultiQueue, 41)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOpen(OpenSpec{Workload: tr}, q, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := deriveSampleEvery(2000, 1e6, 0); res.SampleEvery != want {
		t.Errorf("SampleEvery %v, want derived %v", res.SampleEvery, want)
	}
	q2, err := pqadapt.New(pqadapt.ImplMultiQueue, 41)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunOpen(OpenSpec{Workload: tr, SampleEvery: 7 * time.Millisecond}, q2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SampleEvery != 7*time.Millisecond {
		t.Errorf("explicit SampleEvery not honored: %v", res2.SampleEvery)
	}
}

// TestRunOpenWorkloadTrace: a pre-generated trace replayed through RunOpen
// must serve exactly the trace's job multiset — per-class counts equal to
// the trace's — with the trace's recorded rate as the offered rate, on both
// a relaxed and an exact implementation.
func TestRunOpenWorkloadTrace(t *testing.T) {
	spec, err := workload.Preset("heavytail")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(spec, 77, 4000, 2e5)
	if err != nil {
		t.Fatal(err)
	}
	wantPerClass := tr.ClassJobs()
	for _, impl := range []pqadapt.Impl{pqadapt.ImplMultiQueue, pqadapt.ImplGlobalLock} {
		q, err := pqadapt.New(impl, 43)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunOpen(OpenSpec{Workload: tr, Producers: 2}, q, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		if res.Injected != int64(tr.Jobs()) {
			t.Fatalf("%s: injected %d of %d", impl, res.Injected, tr.Jobs())
		}
		if res.OfferedRate != tr.Rate {
			t.Errorf("%s: offered rate %g, trace rate %g", impl, res.OfferedRate, tr.Rate)
		}
		if res.Rho <= 0 {
			t.Errorf("%s: rho %g not derived from the trace", impl, res.Rho)
		}
		if len(res.PerClass) != tr.NumClasses() {
			t.Fatalf("%s: %d classes reported, trace has %d", impl, len(res.PerClass), tr.NumClasses())
		}
		for c, cs := range res.PerClass {
			if cs.Jobs != wantPerClass[c] {
				t.Errorf("%s: class %d served %d jobs, trace has %d", impl, c, cs.Jobs, wantPerClass[c])
			}
		}
		if res.SojournP50Ms <= 0 || res.SojournP99Ms < res.SojournP50Ms {
			t.Errorf("%s: aggregate sojourns p50=%g p99=%g ill-formed", impl, res.SojournP50Ms, res.SojournP99Ms)
		}
	}
}
