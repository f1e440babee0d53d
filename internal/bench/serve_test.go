package bench

import (
	"testing"

	"powerchoice/internal/jobs"
	"powerchoice/internal/workload"
)

// TestResolveTraceRateRho: ResolveTrace is where a target ρ becomes a rate
// λ = ρ·Threads/E[S], with E[S] the spec's analytic mean service in
// seconds. An explicit rate is taken as is, a loaded trace verbatim, and a
// spec with neither a workload nor a load is rejected.
func TestResolveTraceRateRho(t *testing.T) {
	spec, err := workload.Preset("poisson")
	if err != nil {
		t.Fatal(err)
	}
	byRho, err := (&ServeSpec{Workload: spec, Jobs: 100, Rho: 0.4, Threads: 2, Seed: 3}).ResolveTrace()
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.4 * 2 / (spec.MeanService() * jobs.SpinNsPerUnit() / 1e9); byRho.Rate != want {
		t.Errorf("rho 0.4 on 2 threads resolved to rate %v, want %v", byRho.Rate, want)
	}
	byRate, err := (&ServeSpec{Workload: spec, Jobs: 100, Rate: 12345, Rho: 0.4, Threads: 2, Seed: 3}).ResolveTrace()
	if err != nil {
		t.Fatal(err)
	}
	if byRate.Rate != 12345 {
		t.Errorf("explicit rate 12345 resolved to %v", byRate.Rate)
	}
	if tr, err := (&ServeSpec{Trace: byRate, Workload: spec, Rho: 0.9}).ResolveTrace(); err != nil || tr != byRate {
		t.Errorf("loaded trace not replayed verbatim: %v, %v", tr, err)
	}
	for name, bad := range map[string]ServeSpec{
		"no workload":        {Jobs: 100, Rho: 0.4, Threads: 2},
		"neither rate nor ρ": {Workload: spec, Jobs: 100, Threads: 2},
		"ρ with no threads":  {Workload: spec, Jobs: 100, Rho: 0.4},
	} {
		if _, err := bad.ResolveTrace(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
