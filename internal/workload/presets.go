package workload

import "fmt"

// presets are the built-in named workload shapes, so CI legs, docs and quick
// experiments do not need spec files on disk. Time constants are compressed
// (phases of tens of milliseconds, "days" of half a second) so a benchmark
// run a few seconds long sees many bursts and full diurnal cycles.
//
// A slice, not a map: this package is under the powervet detrand gate (its
// outputs must be pure functions of their inputs) and ranging over a map is
// banned there.
var presets = []Spec{
	// bursty: two-phase MMPP, burst phase 9× the calm phase (so the burst
	// rate is 1.8× the average and the calm rate 0.2×), uniform services —
	// arrival burstiness isolated from service-law effects.
	{
		Name:    "bursty",
		Arrival: ArrivalSpec{Process: ArrivalMMPP, Burst: 9, PhaseS: 0.02},
		Classes: uniformClasses(4, 256),
	},
	// onoff: all load in on-phases covering a quarter of the time — the
	// queue sees 4× the average rate while on, then drains.
	{
		Name:    "onoff",
		Arrival: ArrivalSpec{Process: ArrivalOnOff, OnFraction: 0.25, CycleS: 0.08},
		Classes: uniformClasses(4, 256),
	},
	// diurnal: sinusoidal rate with a compressed half-second "day" swinging
	// ±80% around the average.
	{
		Name:    "diurnal",
		Arrival: ArrivalSpec{Process: ArrivalDiurnal, PeriodS: 0.5, Amplitude: 0.8},
		Classes: uniformClasses(4, 256),
	},
	// heavytail: Poisson arrivals, heavy-tailed services — a bounded-Pareto
	// bulk class (α = 1.5, cut at 64Ki spin units) plus a rarer lognormal
	// class with a fat σ = 1.5 body; the regime where relaxed pop order
	// meets the SRPT-adjacent concerns of Scully & Harchol-Balter.
	{
		Name:    "heavytail",
		Arrival: ArrivalSpec{Process: ArrivalPoisson},
		Classes: []ClassSpec{
			{Weight: 3, Service: ServiceSpec{Law: ServicePareto, Mean: 256, Alpha: 1.5, Max: 65536}},
			{Weight: 1, Service: ServiceSpec{Law: ServiceLognormal, Mean: 512, Sigma: 1.5}},
		},
	},
	// poisson: homogeneous Poisson arrivals and four equally weighted
	// classes of uniform service — powerbench serve's and record's default
	// workload.
	{
		Name:    "poisson",
		Arrival: ArrivalSpec{Process: ArrivalPoisson},
		Classes: uniformClasses(4, 256),
	},
}

func uniformClasses(n int, mean float64) []ClassSpec {
	out := make([]ClassSpec, n)
	for i := range out {
		out[i] = ClassSpec{Weight: 1, Service: ServiceSpec{Law: ServiceUniform, Mean: mean}}
	}
	return out
}

// Preset returns a copy of the named built-in spec.
func Preset(name string) (*Spec, error) {
	for _, p := range presets {
		if p.Name != name {
			continue
		}
		s := p
		s.Classes = append([]ClassSpec(nil), p.Classes...)
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return &s, nil
	}
	return nil, fmt.Errorf("workload: no preset %q (have %v)", name, PresetNames())
}

// PresetNames lists the built-in spec names in declaration order.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for _, p := range presets {
		names = append(names, p.Name)
	}
	return names
}
