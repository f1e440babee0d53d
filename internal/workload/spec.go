// Package workload is the declarative workload subsystem of the open-system
// stack: a Spec names an arrival process (Poisson, bursty MMPP, on/off,
// diurnal) and per-class service laws (exact-mean uniform, bounded Pareto,
// lognormal), and Generate compiles it into a deterministic, replayable
// Trace — the virtual arrival schedule plus each job's class and service
// time, drawn from tagged xrand streams so the realization is a pure
// function of (spec, seed, jobs, rate).
//
// Traces serialize to a versioned JSONL artifact (see WriteTrace/ReadTrace)
// whose header carries the spec, seed, schema version, and a content hash,
// so a recorded serve run is a shareable, identity-checked artifact that
// powerbench replay can re-run through any queue implementation or
// topology. This is the shape ROADMAP item 2 calls for (modelled on
// inference-sim's servegen/tracev2/replay): the regime where the paper's
// rank-error bounds become production claims is exactly non-ideal traffic —
// bursty arrivals and heavy-tailed service times (Scully & Harchol-Balter,
// PAPERS.md) — and this package is what makes that regime reachable.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// SchemaVersion is the trace/spec schema this package reads and writes.
// Readers reject other versions rather than misinterpreting fields.
const SchemaVersion = 1

// maxUniformMean is the largest uniform-law mean whose draws, integers on
// [1, 2·Mean), fit a trace's uint32 service field: 2·Mean − 1 ≤ 2^32 − 1.
const maxUniformMean = 1 << 31

// minPhaseS is the shortest MMPP phase and on/off cycle, in seconds.
// Generate steps through every phase switch, so a phase much shorter than
// the gap between arrivals costs one loop iteration per switch: at 1 µs a
// trace at 10^6 jobs/s takes about two per arrival, and at 10^-12 s a
// 256-job trace would take 10^8.
const minPhaseS = 1e-6

// Spec declares a workload: how arrivals are paced and what each priority
// class's jobs cost. The total offered rate is NOT part of the spec — it is
// a run parameter (explicit λ or derived from a target utilization ρ), so
// one spec describes the traffic *shape* at any load.
type Spec struct {
	// Version is the schema version; 0 means SchemaVersion.
	Version int `json:"version,omitempty"`
	// Name identifies the spec in reports ("bursty", "diurnal", ...).
	Name string `json:"name"`
	// Arrival selects and parameterizes the arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// Classes declares the priority classes, index 0 most urgent. Weights
	// are relative arrival shares; each class carries its own service law.
	Classes []ClassSpec `json:"classes"`
}

// ClassSpec is one priority class's share of the traffic.
type ClassSpec struct {
	// Weight is the class's relative share of arrivals (> 0).
	Weight float64 `json:"weight"`
	// Service is the class's service-time law.
	Service ServiceSpec `json:"service"`
}

// Arrival process names.
const (
	// ArrivalPoisson paces arrivals by a homogeneous Poisson process —
	// exponential interarrivals at the configured rate.
	ArrivalPoisson = "poisson"
	// ArrivalMMPP is a two-phase Markov-modulated Poisson process: the rate
	// alternates between a calm and a burst phase (burst = Burst × calm),
	// with exponentially distributed phase dwell times of mean PhaseS. The
	// stationary average equals the configured rate.
	ArrivalMMPP = "mmpp"
	// ArrivalOnOff is the on/off special case of MMPP: no arrivals at all in
	// the off phase, rate/OnFraction in the on phase, so bursts carry the
	// whole load. CycleS is the mean on+off cycle length.
	ArrivalOnOff = "onoff"
	// ArrivalDiurnal modulates the rate sinusoidally with period PeriodS and
	// relative amplitude Amplitude — a compressed day/night cycle, sampled
	// by thinning a Poisson process at the peak rate.
	ArrivalDiurnal = "diurnal"
)

// ArrivalSpec parameterizes the arrival process. Only the fields of the
// named process are read; Validate rejects out-of-range values.
type ArrivalSpec struct {
	Process string `json:"process"`
	// Burst is the MMPP burst-phase rate multiplier (> 1).
	Burst float64 `json:"burst,omitempty"`
	// PhaseS is the MMPP mean phase dwell time in seconds (> 0).
	PhaseS float64 `json:"phase_s,omitempty"`
	// OnFraction is the on/off process's fraction of time spent on (0, 1).
	OnFraction float64 `json:"on_fraction,omitempty"`
	// CycleS is the on/off mean cycle (on + off) length in seconds (> 0).
	CycleS float64 `json:"cycle_s,omitempty"`
	// PeriodS is the diurnal period in seconds (> 0).
	PeriodS float64 `json:"period_s,omitempty"`
	// Amplitude is the diurnal relative rate swing in [0, 1): rate(t) =
	// λ·(1 + Amplitude·sin(2πt/PeriodS)).
	Amplitude float64 `json:"amplitude,omitempty"`
}

// Service law names.
const (
	// ServiceUniform draws integer service times uniform on [1, 2·Mean),
	// whose mean is exactly Mean. Mean must be an integer.
	ServiceUniform = "uniform"
	// ServicePareto draws from a bounded Pareto on [L, Max] with tail index
	// Alpha, L solved at compile time so the continuous law's mean is
	// exactly Mean — the canonical heavy-tailed service law.
	ServicePareto = "pareto"
	// ServiceLognormal draws exp(μ + Sigma·Z) with μ = ln(Mean) − Sigma²/2,
	// so the mean is exactly Mean at any shape Sigma.
	ServiceLognormal = "lognormal"
)

// ServiceSpec parameterizes a class's service-time law, in spin units.
type ServiceSpec struct {
	Law string `json:"law"`
	// Mean is the law's exact mean in spin units (≥ 1; an integer for the
	// uniform law).
	Mean float64 `json:"mean"`
	// Alpha is the bounded-Pareto tail index (> 0, ≠ 1 handled too).
	Alpha float64 `json:"alpha,omitempty"`
	// Max is the bounded-Pareto upper cutoff in spin units (> Mean).
	Max float64 `json:"max,omitempty"`
	// Sigma is the lognormal shape parameter (> 0).
	Sigma float64 `json:"sigma,omitempty"`
}

// Validate checks the spec and fills the schema version; it is called by
// Generate and by the spec loaders so a bad spec fails loudly up front.
func (s *Spec) Validate() error {
	if s.Version == 0 {
		s.Version = SchemaVersion
	}
	if s.Version != SchemaVersion {
		return fmt.Errorf("workload: spec schema version %d, this build reads %d", s.Version, SchemaVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("workload: spec needs a name")
	}
	if len(s.Classes) < 1 || len(s.Classes) > 256 {
		return fmt.Errorf("workload: %d classes outside [1,256]", len(s.Classes))
	}
	var wsum float64
	for i, c := range s.Classes {
		if !(c.Weight > 0) {
			return fmt.Errorf("workload: class %d weight %v must be > 0", i, c.Weight)
		}
		wsum += c.Weight
		if err := c.Service.validate(); err != nil {
			return fmt.Errorf("workload: class %d: %w", i, err)
		}
	}
	// An infinite sum makes every share 0 (or NaN): the class draw would
	// put every job in the last class.
	if math.IsInf(wsum, 0) {
		return fmt.Errorf("workload: class weights sum to %v, must be finite", wsum)
	}
	a := s.Arrival
	switch a.Process {
	case ArrivalPoisson:
	case ArrivalMMPP:
		if !(a.Burst > 1) {
			return fmt.Errorf("workload: mmpp burst %v must be > 1", a.Burst)
		}
		if !(a.PhaseS >= minPhaseS) {
			return fmt.Errorf("workload: mmpp phase_s %v must be >= %v", a.PhaseS, minPhaseS)
		}
	case ArrivalOnOff:
		if !(a.OnFraction > 0 && a.OnFraction < 1) {
			return fmt.Errorf("workload: onoff on_fraction %v outside (0,1)", a.OnFraction)
		}
		if !(a.CycleS >= minPhaseS) {
			return fmt.Errorf("workload: onoff cycle_s %v must be >= %v", a.CycleS, minPhaseS)
		}
	case ArrivalDiurnal:
		if !(a.PeriodS > 0) {
			return fmt.Errorf("workload: diurnal period_s %v must be > 0", a.PeriodS)
		}
		if !(a.Amplitude >= 0 && a.Amplitude < 1) {
			return fmt.Errorf("workload: diurnal amplitude %v outside [0,1)", a.Amplitude)
		}
	default:
		return fmt.Errorf("workload: unknown arrival process %q", a.Process)
	}
	return nil
}

func (sv ServiceSpec) validate() error {
	if !(sv.Mean >= 1) {
		return fmt.Errorf("service mean %v must be >= 1 spin unit", sv.Mean)
	}
	// Each law must fit the trace's uint32 service field: a uniform draw past
	// it would wrap, and a Pareto cutoff or lognormal mean past it cannot be
	// realized by draws clamped to it, so the trace's mean service would fall
	// short of Mean, the E[S] every ρ is computed from.
	switch sv.Law {
	case ServiceUniform:
		if sv.Mean > maxUniformMean {
			return fmt.Errorf("uniform mean %v exceeds %d: draws on [1, 2·mean) would not fit 32 bits", sv.Mean, maxUniformMean)
		}
		// The law draws integers on [1, 2·Mean); a fractional Mean has no
		// such law whose mean is Mean, so the E[S] of every ρ would be off.
		if sv.Mean != math.Trunc(sv.Mean) {
			return fmt.Errorf("uniform mean %v must be an integer", sv.Mean)
		}
	case ServicePareto:
		if !(sv.Alpha > 0) {
			return fmt.Errorf("pareto alpha %v must be > 0", sv.Alpha)
		}
		if !(sv.Max > sv.Mean) {
			return fmt.Errorf("pareto max %v must exceed mean %v", sv.Max, sv.Mean)
		}
		if sv.Max > math.MaxUint32 {
			return fmt.Errorf("pareto max %v exceeds %d, the largest service time", sv.Max, uint32(math.MaxUint32))
		}
	case ServiceLognormal:
		if !(sv.Sigma > 0) {
			return fmt.Errorf("lognormal sigma %v must be > 0", sv.Sigma)
		}
		if sv.Mean > math.MaxUint32 {
			return fmt.Errorf("lognormal mean %v exceeds %d, the largest service time", sv.Mean, uint32(math.MaxUint32))
		}
	default:
		return fmt.Errorf("unknown service law %q", sv.Law)
	}
	return nil
}

// MeanService returns the spec's analytic overall mean service time E[S] in
// spin units — the per-class means averaged by class share. Open-system
// utilization targets (ρ = λ·E[S]/P) are converted to rates with it.
// Averaging by share rather than by raw weight keeps every term finite
// whatever the weights' scale.
func (s *Spec) MeanService() float64 {
	var mean float64
	for i, share := range s.ClassShares() {
		mean += share * s.Classes[i].Service.Mean
	}
	return mean
}

// ClassShares returns each class's fraction of total arrivals.
func (s *Spec) ClassShares() []float64 {
	var wsum float64
	for _, c := range s.Classes {
		wsum += c.Weight
	}
	out := make([]float64, len(s.Classes))
	for i, c := range s.Classes {
		out[i] = c.Weight / wsum
	}
	return out
}

// ParseSpec decodes and validates a JSON spec.
func ParseSpec(b []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("workload: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec resolves name to a workload spec: a built-in preset name
// (Preset) or a path to a JSON spec file. powerbench's -workload flag
// accepts exactly these.
func LoadSpec(name string) (*Spec, error) {
	if s, err := Preset(name); err == nil {
		return s, nil
	}
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("workload: %q is neither a preset (%v) nor a readable spec file: %w",
			name, PresetNames(), err)
	}
	return ParseSpec(b)
}
