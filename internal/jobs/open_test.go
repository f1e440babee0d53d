package jobs

import (
	"fmt"
	"testing"
	"time"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/workload"
)

// poissonTrace generates n jobs of the poisson preset (4 classes of mean
// service 256) at the rate whose analytic load is rho on `workers` workers.
func poissonTrace(t *testing.T, n int, rho float64, workers int, seed uint64) *workload.Trace {
	t.Helper()
	spec, err := workload.Preset("poisson")
	if err != nil {
		t.Fatal(err)
	}
	rate := rho * float64(workers) / (meanService(spec) * SpinNsPerUnit() / 1e9)
	tr, err := workload.Generate(spec, seed, n, rate)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// meanService is a spec's analytic mean service time in spin units: the
// class means averaged by class share.
func meanService(spec *workload.Spec) float64 {
	var mean float64
	for i, share := range spec.ClassShares() {
		mean += share * spec.Classes[i].Service.Mean
	}
	return mean
}

// traceRho is the utilization a trace offers `workers` workers: rate × mean
// realized service × SpinNsPerUnit / 1e9 / workers, evaluated in the order
// RunOpen evaluates it.
func traceRho(tr *workload.Trace, workers int) float64 {
	var services float64
	for _, s := range tr.Service {
		services += float64(s)
	}
	return tr.Rate * (services / float64(tr.Jobs())) * SpinNsPerUnit() / 1e9 / float64(workers)
}

// TestRunOpenServesEveryArrival: the open-system server must serve every
// injected job exactly once (none lost in shared queues or batch buffers at
// shutdown) and report well-formed per-class sojourn stats, for relaxed and
// exact implementations, batched and unbatched.
func TestRunOpenServesEveryArrival(t *testing.T) {
	n := 6000
	if testing.Short() {
		n = 1500
	}
	tr := poissonTrace(t, n, 0.5, 2, 11)
	for _, impl := range []pqadapt.Impl{
		pqadapt.ImplMultiQueue, pqadapt.ImplOneBeta75,
		pqadapt.ImplKLSM, pqadapt.ImplGlobalLock,
	} {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			for _, batch := range []int{0, 8} {
				q, err := pqadapt.New(impl, 43)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunOpen(OpenSpec{Workload: tr, Producers: 2}, q, 2, batch)
				if err != nil {
					t.Fatal(err)
				}
				if res.Injected != int64(n) {
					t.Fatalf("batch=%d: injected %d of %d", batch, res.Injected, n)
				}
				if res.Stats.Processed != int64(n) || res.Stats.Stale != 0 {
					t.Fatalf("batch=%d: processed %d stale %d, want %d / 0",
						batch, res.Stats.Processed, res.Stats.Stale, n)
				}
				var total int64
				for c, cs := range res.PerClass {
					if cs.Class != c {
						t.Fatalf("class order: %+v", res.PerClass)
					}
					if cs.Jobs > 0 && (cs.P99Ms < cs.P50Ms || cs.MeanMs <= 0) {
						t.Fatalf("class %d sojourns malformed: %+v", c, cs)
					}
					total += cs.Jobs
				}
				if total != int64(n) {
					t.Fatalf("batch=%d: per-class jobs sum %d, want %d", batch, total, n)
				}
				if res.Rho != traceRho(tr, 2) || res.OfferedRate <= 0 || res.SpinNsPerUnit <= 0 {
					t.Errorf("batch=%d: load parameters: %+v", batch, res)
				}
				checkLittlesLaw(t, fmt.Sprintf("batch=%d", batch), res)
			}
		})
	}
}

// TestRunOpenRateRhoConversion: the rate and ρ a run reports are two views
// of the trace's load through its realized mean service and the spin
// calibration. A trace generated at the rate whose analytic load is 0.4
// offers 0.4 scaled by its realized over its analytic mean service, and
// the run reports the trace's own rate.
func TestRunOpenRateRhoConversion(t *testing.T) {
	const workers = 2
	tr := poissonTrace(t, 500, 0.4, workers, 3)
	q, err := pqadapt.New(pqadapt.ImplGlobalLock, 47)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOpen(OpenSpec{Workload: tr}, q, workers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.OfferedRate != tr.Rate {
		t.Errorf("offered rate %g, trace rate %g", res.OfferedRate, tr.Rate)
	}
	if res.Rho != traceRho(tr, workers) {
		t.Errorf("rho %v, the trace offers %v", res.Rho, traceRho(tr, workers))
	}
	var services float64
	for _, s := range tr.Service {
		services += float64(s)
	}
	want := 0.4 * services / float64(tr.Jobs()) / meanService(&tr.Spec)
	if d := res.Rho/want - 1; d > 1e-9 || d < -1e-9 {
		t.Errorf("rho %v, want %v: 0.4 scaled by the realized mean service", res.Rho, want)
	}
}

// TestRunOpenValidates: a nil queue and a nil or empty trace are rejected
// up front. The load's own checks live where the load is built: the rate
// and the job count in workload.Generate and the classes in
// workload.Spec.Validate.
func TestRunOpenValidates(t *testing.T) {
	q, err := pqadapt.New(pqadapt.ImplGlobalLock, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := poissonTrace(t, 10, 0.5, 1, 1)
	if _, err := RunOpen(OpenSpec{Workload: tr}, nil, 1, 0); err == nil {
		t.Error("nil queue accepted")
	}
	if _, err := RunOpen(OpenSpec{}, q, 1, 0); err == nil {
		t.Error("spec without a trace accepted")
	}
	if _, err := RunOpen(OpenSpec{Workload: &workload.Trace{Spec: tr.Spec}}, q, 1, 0); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestRunOpenDeadline: a deadline stops injection early but every job that
// did arrive is served and accounted in the per-class sums.
func TestRunOpenDeadline(t *testing.T) {
	q, err := pqadapt.New(pqadapt.ImplMultiQueue, 53)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.Preset("poisson")
	if err != nil {
		t.Fatal(err)
	}
	// 100,000 jobs at 20k/s would run ~5s; the 40ms deadline cuts it.
	tr, err := workload.Generate(spec, 17, 100_000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOpen(OpenSpec{Workload: tr, Deadline: 40 * time.Millisecond}, q, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 || res.Injected >= 100_000 {
		t.Fatalf("deadline did not bound injection: %d", res.Injected)
	}
	if res.Stats.Processed != res.Injected {
		t.Fatalf("processed %d != injected %d", res.Stats.Processed, res.Injected)
	}
	var total int64
	for _, cs := range res.PerClass {
		total += cs.Jobs
	}
	if total != res.Injected {
		t.Fatalf("per-class jobs sum %d, want injected %d", total, res.Injected)
	}
	checkLittlesLaw(t, "deadline-cut", res)
}

// checkLittlesLaw checks QLenMean against the run's sojourns: by Little's
// law over a run that starts and ends empty, QLenMean·Elapsed is the sum of
// the injected jobs' sojourns, Σ over classes of Jobs·MeanMs·1e6 ns, and it
// is positive once any job was served.
func checkLittlesLaw(t *testing.T, leg string, res OpenResult) {
	t.Helper()
	var sojourns float64
	for _, cs := range res.PerClass {
		sojourns += float64(cs.Jobs) * cs.MeanMs * 1e6
	}
	area := res.QLenMean * float64(res.Elapsed)
	if d := area/sojourns - 1; d > 1e-9 || d < -1e-9 {
		t.Errorf("%s: QLenMean·Elapsed = %g ns, summed sojourns %g ns", leg, area, sojourns)
	}
	if !(res.QLenMean > 0) {
		t.Errorf("%s: QLenMean %g, want > 0", leg, res.QLenMean)
	}
}

// TestSpinCalibrationStable: the calibration is positive, cached, and in a
// plausible range (a spin unit is one LCG step — well under a microsecond).
func TestSpinCalibrationStable(t *testing.T) {
	a := SpinNsPerUnit()
	b := SpinNsPerUnit()
	if a != b {
		t.Errorf("calibration not cached: %v then %v", a, b)
	}
	if a <= 0 || a > 1000 {
		t.Errorf("ns/unit = %v outside (0, 1000]", a)
	}
}
