package workload

import (
	"fmt"
	"math"
	"time"

	"powerchoice/internal/xrand"
)

// Stream tags: generation draws from three domain-separated stream families
// rooted at the trace seed, so arrival pacing, class identity and service
// draws are statistically independent of each other and of every other
// subsystem seeded from the same root (xrand.Tag).
const (
	arrivalSeedTag = "workload.arrival"
	classSeedTag   = "workload.class"
	serviceSeedTag = "workload.service"
)

// arrivalProcess yields successive interarrival gaps of the merged (global)
// arrival stream. It runs offline, in virtual time, and Generate sums the
// gaps into the trace's absolute schedule (Trace.ArrivalNs), which
// sched.RunOpen paces as is, so the realization is replay-deterministic
// regardless of producer scheduling at serve time.
type arrivalProcess interface {
	Next() time.Duration
}

// newArrivalProcess compiles the arrival spec at total rate λ (jobs/second)
// onto rng. The spec must be validated.
func newArrivalProcess(a ArrivalSpec, rate float64, rng *xrand.Source) arrivalProcess {
	perNs := rate / float64(time.Second)
	switch a.Process {
	case ArrivalPoisson:
		return &poissonProc{rng: rng, meanNs: 1 / perNs}
	case ArrivalMMPP:
		// Equal mean dwell in both phases: calm rate r0 with burst b·r0
		// averages to λ when r0 = 2λ/(1+b).
		calm := 2 * perNs / (1 + a.Burst)
		return &mmppProc{
			rng:     rng,
			rates:   [2]float64{calm, a.Burst * calm},
			dwellNs: [2]float64{a.PhaseS * 1e9, a.PhaseS * 1e9},
		}
	case ArrivalOnOff:
		// On-rate λ/f over a fraction f of the time averages to λ; the off
		// phase is an MMPP phase of rate zero.
		return &mmppProc{
			rng:     rng,
			rates:   [2]float64{perNs / a.OnFraction, 0},
			dwellNs: [2]float64{a.OnFraction * a.CycleS * 1e9, (1 - a.OnFraction) * a.CycleS * 1e9},
		}
	case ArrivalDiurnal:
		return &diurnalProc{
			rng:      rng,
			baseNs:   perNs,
			amp:      a.Amplitude,
			periodNs: a.PeriodS * 1e9,
		}
	}
	panic("workload: unvalidated arrival spec " + a.Process)
}

// poissonProc: homogeneous exponential gaps of mean meanNs.
type poissonProc struct {
	rng    *xrand.Source
	meanNs float64
}

func (p *poissonProc) Next() time.Duration {
	return time.Duration(p.meanNs * p.rng.ExpFloat64())
}

// mmppProc is a two-phase Markov-modulated Poisson process simulated by
// competing exponential clocks: within a phase, arrival gaps are exponential
// at that phase's rate; when the remaining dwell time runs out first, the
// phase switches and the arrival clock restarts (memorylessness makes the
// restart exact). A rate-zero phase (on/off) contributes only dwell time.
type mmppProc struct {
	rng     *xrand.Source
	rates   [2]float64 // arrivals per ns, per phase
	dwellNs [2]float64 // mean phase dwell, ns
	phase   int
	left    float64 // remaining dwell in the current phase, ns
	started bool
	// switches counts phase transitions; the distribution tests use it to
	// identify draws that completed inside a single phase.
	switches int64
}

func (m *mmppProc) Next() time.Duration {
	if !m.started {
		m.started = true
		m.left = m.dwellNs[m.phase] * m.rng.ExpFloat64()
	}
	var acc float64
	for {
		if r := m.rates[m.phase]; r > 0 {
			gap := m.rng.ExpFloat64() / r
			if gap <= m.left {
				m.left -= gap
				return time.Duration(acc + gap)
			}
		}
		// No arrival before the phase ends (or a silent phase): consume the
		// dwell remainder and switch.
		acc += m.left
		m.phase = 1 - m.phase
		m.left = m.dwellNs[m.phase] * m.rng.ExpFloat64()
		m.switches++
	}
}

// diurnalProc samples an inhomogeneous Poisson process with rate
// λ(t) = base·(1 + amp·sin(2πt/period)) by thinning a homogeneous candidate
// stream at the peak rate base·(1+amp).
type diurnalProc struct {
	rng      *xrand.Source
	baseNs   float64 // average arrivals per ns
	amp      float64
	periodNs float64
	tNs      float64 // virtual time of the last candidate
}

func (d *diurnalProc) Next() time.Duration {
	peak := d.baseNs * (1 + d.amp)
	prev := d.tNs
	for {
		d.tNs += d.rng.ExpFloat64() / peak
		rate := d.baseNs * (1 + d.amp*math.Sin(2*math.Pi*d.tNs/d.periodNs))
		if d.rng.Float64()*peak < rate {
			return time.Duration(d.tNs - prev)
		}
	}
}

// serviceSampler draws one job's service time in spin units.
type serviceSampler interface {
	Sample(rng *xrand.Source) uint32
}

// newServiceSampler compiles a validated service law.
func newServiceSampler(sv ServiceSpec) serviceSampler {
	switch sv.Law {
	case ServiceUniform:
		return uniformLaw{mean: int(sv.Mean)}
	case ServicePareto:
		low := solveParetoLow(sv.Mean, sv.Max, sv.Alpha)
		return paretoLaw{low: low, high: sv.Max, alpha: sv.Alpha}
	case ServiceLognormal:
		return lognormalLaw{mu: math.Log(sv.Mean) - sv.Sigma*sv.Sigma/2, sigma: sv.Sigma}
	}
	panic("workload: unvalidated service law " + sv.Law)
}

// uniformLaw is jobs.Generate's historical law: integers uniform on
// [1, 2·mean), mean exactly `mean`.
type uniformLaw struct{ mean int }

func (u uniformLaw) Sample(rng *xrand.Source) uint32 {
	if u.mean == 1 {
		return 1
	}
	return uint32(rng.Intn(2*u.mean-1)) + 1
}

// paretoLaw is a bounded Pareto on [low, high] with tail index alpha,
// sampled by inversion: F(x) = (1 − (L/x)^α) / (1 − (L/H)^α).
type paretoLaw struct{ low, high, alpha float64 }

func (p paretoLaw) Sample(rng *xrand.Source) uint32 {
	u := rng.Float64()
	lh := math.Pow(p.low/p.high, p.alpha)
	x := p.low * math.Pow(1-u*(1-lh), -1/p.alpha)
	return clampService(x)
}

// boundedParetoMean is the analytic mean of the continuous bounded Pareto on
// [l, h] with tail index a.
func boundedParetoMean(l, h, a float64) float64 {
	if a == 1 {
		return l * math.Log(h/l) / (1 - l/h)
	}
	lh := math.Pow(l/h, a)
	return a / (a - 1) * l * (1 - math.Pow(l/h, a-1)) / (1 - lh)
}

// solveParetoLow finds the lower cutoff L so the bounded Pareto on [L, max]
// with tail alpha has the given mean. The mean is strictly increasing in L
// (from 0 toward max), so bisection converges; validation guarantees
// mean < max.
func solveParetoLow(mean, max, alpha float64) float64 {
	lo, hi := math.SmallestNonzeroFloat64, max
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if boundedParetoMean(mid, max, alpha) < mean {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// lognormalLaw draws exp(mu + sigma·Z) with Z standard normal via one
// Box–Muller half-pair (two uniforms per draw, no state).
type lognormalLaw struct{ mu, sigma float64 }

func (l lognormalLaw) Sample(rng *xrand.Source) uint32 {
	u1 := 1 - rng.Float64() // (0, 1], so the log is finite
	u2 := rng.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return clampService(math.Exp(l.mu + l.sigma*z))
}

// clampService rounds a continuous draw to integer spin units in
// [1, MaxUint32].
func clampService(x float64) uint32 {
	if !(x >= 1) { // also catches NaN
		return 1
	}
	if x >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(x + 0.5)
}

// Generate compiles the spec into a deterministic Trace of n arrivals at
// total offered rate `rate` (jobs/second): the merged virtual arrival
// schedule plus each job's class and service time. The same
// (spec, seed, n, rate) always yields the identical trace — Hash and the
// record→replay CI leg pin that.
func Generate(spec *Spec, seed uint64, n int, rate float64) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("workload: %d jobs", n)
	}
	if n >= 1<<31 {
		return nil, fmt.Errorf("workload: %d jobs overflow int32 IDs", n)
	}
	if !(rate > 0) {
		return nil, fmt.Errorf("workload: rate %v must be > 0", rate)
	}
	arrivalRng := xrand.NewSource(xrand.Tag(seed, arrivalSeedTag))
	classRng := xrand.NewSource(xrand.Tag(seed, classSeedTag))
	serviceRng := xrand.NewSource(xrand.Tag(seed, serviceSeedTag))

	proc := newArrivalProcess(spec.Arrival, rate, arrivalRng)
	samplers := make([]serviceSampler, len(spec.Classes))
	for i, c := range spec.Classes {
		samplers[i] = newServiceSampler(c.Service)
	}
	shares := cumulativeShares(spec)

	tr := &Trace{
		Spec:      *spec,
		Seed:      seed,
		Rate:      rate,
		ArrivalNs: make([]int64, n),
		Class:     make([]uint8, n),
		Service:   make([]uint32, n),
	}
	var t time.Duration
	for i := 0; i < n; i++ {
		t += proc.Next()
		tr.ArrivalNs[i] = int64(t)
		c := pickClass(shares, classRng.Float64())
		tr.Class[i] = uint8(c)
		tr.Service[i] = samplers[c].Sample(serviceRng)
	}
	return tr, nil
}

// cumulativeShares precomputes the class-draw thresholds.
func cumulativeShares(spec *Spec) []float64 {
	shares := spec.ClassShares()
	cum := make([]float64, len(shares))
	var acc float64
	for i, w := range shares {
		acc += w
		cum[i] = acc
	}
	cum[len(cum)-1] = 1 // absorb rounding so the last class owns the tail
	return cum
}

// pickClass maps a uniform u in [0,1) to a class index.
func pickClass(cum []float64, u float64) int {
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}
