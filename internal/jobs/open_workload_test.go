package jobs

import (
	"testing"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/workload"
)

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
