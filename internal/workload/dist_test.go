package workload

// Distribution-correctness tests: each arrival process and service law is
// checked against its nominal law — chi-square goodness of fit on
// equal-probability bins plus exact-mean checks — with fixed seeds, so the
// tests are deterministic. Skipped under the race detector (sample sizes in
// the hundreds of thousands; single-goroutine generation gains no race
// coverage) and reduced under -short.

import (
	"math"
	"testing"
	"time"

	"powerchoice/internal/stats"
	"powerchoice/internal/xrand"
)

// distN returns the full or -short sample size.
func distN(t *testing.T, full int) int {
	t.Helper()
	n := wholeN(t, full)
	if testing.Short() {
		return n / 10
	}
	return n
}

// wholeN returns the full sample size even under -short, for tests whose
// trace must span whole cycles of its arrival process: a tenfold cut leaves
// the on/off trace ~50 ms long, short of one 80 ms cycle, and the diurnal
// trace ~0.1 s, short of one 0.5 s period. Like distN it skips under race.
func wholeN(t *testing.T, full int) int {
	t.Helper()
	if raceEnabled {
		t.Skip("statistical sweep skipped under race (see race_on_test.go)")
	}
	return full
}

// chiSquareP bins samples by the edges (len(edges)+1 bins covering
// (-inf, e0), [e0, e1), …, [eN, inf)) and returns the chi-square p-value
// against the expected bin probabilities.
func chiSquareP(t *testing.T, samples []float64, edges, probs []float64) float64 {
	t.Helper()
	if len(probs) != len(edges)+1 {
		t.Fatalf("bad bins: %d edges, %d probs", len(edges), len(probs))
	}
	observed := make([]float64, len(probs))
	for _, s := range samples {
		i := 0
		for i < len(edges) && s >= edges[i] {
			i++
		}
		observed[i]++
	}
	expected := make([]float64, len(probs))
	for i, p := range probs {
		expected[i] = p * float64(len(samples))
	}
	_, p, err := stats.ChiSquare(observed, expected)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// expBins returns equal-probability bin edges for Exp(rate): the k/n
// quantiles −ln(1−k/n)/rate, and the uniform probability vector.
func expBins(rate float64, bins int) (edges, probs []float64) {
	probs = make([]float64, bins)
	for i := range probs {
		probs[i] = 1 / float64(bins)
	}
	edges = make([]float64, bins-1)
	for i := range edges {
		q := float64(i+1) / float64(bins)
		edges[i] = -math.Log(1-q) / rate
	}
	return edges, probs
}

// TestPoissonInterarrivalsExponential: a generated Poisson trace's gaps must
// be exponential at the configured rate (chi-square on 16 equal-probability
// bins) with the configured mean.
func TestPoissonInterarrivalsExponential(t *testing.T) {
	n := distN(t, 100000)
	spec, err := Preset("poisson")
	if err != nil {
		t.Fatal(err)
	}
	const rate = 2e5 // jobs/s → mean gap 5000ns
	tr, err := Generate(spec, 101, n, rate)
	if err != nil {
		t.Fatal(err)
	}
	gaps := make([]float64, 0, n)
	var prev int64
	var sum float64
	for _, at := range tr.ArrivalNs {
		g := float64(at - prev)
		prev = at
		gaps = append(gaps, g)
		sum += g
	}
	perNs := rate / float64(time.Second)
	meanGap := 1 / perNs
	if got := sum / float64(len(gaps)); math.Abs(got-meanGap)/meanGap > 0.02 {
		t.Errorf("mean gap %.0fns, want %.0fns ±2%%", got, meanGap)
	}
	edges, probs := expBins(perNs, 16)
	if p := chiSquareP(t, gaps, edges, probs); p < 1e-3 {
		t.Errorf("poisson gaps reject exponentiality: p=%g", p)
	}
}

// TestMMPPPerPhaseExponential: within one MMPP phase, arrival gaps that
// complete without a phase switch are exponential at rate r + 1/D (the
// phase's arrival rate competing with the Exp(D) dwell clock — conditioning
// an Exp(r) gap on beating an independent Exp(D) remainder yields
// Exp(r + 1/D)). Chi-square per phase, plus a check that the process
// actually alternates.
func TestMMPPPerPhaseExponential(t *testing.T) {
	n := distN(t, 200000)
	const (
		calm    = 1e-4 // arrivals per ns
		burst   = 9 * calm
		dwellNs = 200000.0 // mean phase dwell: ~20 calm / ~180 burst arrivals
	)
	m := &mmppProc{
		rng:     xrand.NewSource(xrand.Tag(7, "dist.mmpp")),
		rates:   [2]float64{calm, burst},
		dwellNs: [2]float64{dwellNs, dwellNs},
	}
	perPhase := [2][]float64{}
	for i := 0; i < n; i++ {
		phase := m.phase
		switches := m.switches
		gap := float64(m.Next())
		if m.switches == switches {
			// The whole gap elapsed inside `phase`.
			perPhase[phase] = append(perPhase[phase], gap)
		}
	}
	if m.switches < 100 {
		t.Fatalf("only %d phase switches in %d arrivals; dwell times broken", m.switches, n)
	}
	for phase, rate := range []float64{calm, burst} {
		if len(perPhase[phase]) < 1000 {
			t.Fatalf("phase %d has only %d within-phase gaps", phase, len(perPhase[phase]))
		}
		condRate := rate + 1/dwellNs
		edges, probs := expBins(condRate, 12)
		if p := chiSquareP(t, perPhase[phase], edges, probs); p < 1e-3 {
			t.Errorf("phase %d within-phase gaps reject Exp(%g): p=%g", phase, condRate, p)
		}
	}
}

// TestOnOffSilentPhase: the on/off process must put every arrival in an on
// phase — gaps are never shorter than an on-phase draw allows and the long
// off dwells show up as a heavy upper tail relative to pure Poisson.
func TestOnOffSilentPhase(t *testing.T) {
	n := wholeN(t, 50000)
	spec, err := Preset("onoff")
	if err != nil {
		t.Fatal(err)
	}
	const rate = 1e5
	tr, err := Generate(spec, 55, n, rate)
	if err != nil {
		t.Fatal(err)
	}
	// Overall mean must still hit the configured rate (the on-phase rate is
	// boosted exactly to compensate for silence).
	meanGap := float64(tr.ArrivalNs[n-1]) / float64(n)
	want := float64(time.Second) / rate
	if math.Abs(meanGap-want)/want > 0.1 {
		t.Errorf("onoff mean gap %.0fns, want %.0fns ±10%%", meanGap, want)
	}
	// Burstiness: the squared coefficient of variation of gaps must be well
	// above the Poisson value of 1 (on/off with f=0.25 concentrates arrivals
	// in a quarter of the time).
	var sum, sum2 float64
	var prev int64
	for _, at := range tr.ArrivalNs {
		g := float64(at - prev)
		prev = at
		sum += g
		sum2 += g * g
	}
	mean := sum / float64(n)
	cv2 := (sum2/float64(n) - mean*mean) / (mean * mean)
	if cv2 < 2 {
		t.Errorf("onoff gap CV² = %.2f, want ≫ 1 (bursty)", cv2)
	}
}

// TestDiurnalModulation: over whole periods, arrivals must crowd into the
// first half-period (where sin > 0 boosts the rate) in the analytic
// proportion: the first half of each period carries 1/2 + amp/π of the
// arrivals.
func TestDiurnalModulation(t *testing.T) {
	n := wholeN(t, 200000)
	spec, err := Preset("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	const rate = 2e5
	tr, err := Generate(spec, 77, n, rate)
	if err != nil {
		t.Fatal(err)
	}
	amp := spec.Arrival.Amplitude
	periodNs := spec.Arrival.PeriodS * 1e9
	// Count arrivals by half-period, over whole periods only.
	lastWhole := int64(math.Floor(float64(tr.ArrivalNs[n-1])/periodNs) * periodNs)
	var firstHalf, total float64
	for _, at := range tr.ArrivalNs {
		if at >= lastWhole {
			break
		}
		if math.Mod(float64(at), periodNs) < periodNs/2 {
			firstHalf++
		}
		total++
	}
	if total < float64(n)/2 {
		t.Fatalf("only %.0f of %d arrivals inside whole periods", total, n)
	}
	wantShare := 0.5 + amp/math.Pi
	gotShare := firstHalf / total
	if math.Abs(gotShare-wantShare) > 0.02 {
		t.Errorf("first-half share %.4f, want %.4f ±0.02", gotShare, wantShare)
	}
}

// normalCDF is Φ(x).
func normalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// halfIntegerEdges snaps continuous bin edges to half-integers so rounding
// a continuous draw to integer spin units cannot move it across an edge.
func halfIntegerEdges(edges []float64) []float64 {
	out := make([]float64, len(edges))
	for i, e := range edges {
		out[i] = math.Floor(e) + 0.5
	}
	return out
}

// TestBoundedParetoMeanAndShape: the bounded-Pareto sampler's empirical mean
// must hit the spec's exact mean, and its binned distribution must match the
// continuous CDF F(x) = (1−(L/x)^α)/(1−(L/H)^α) with half-integer bins
// absorbing the integer rounding.
func TestBoundedParetoMeanAndShape(t *testing.T) {
	n := distN(t, 200000)
	sv := ServiceSpec{Law: ServicePareto, Mean: 256, Alpha: 1.5, Max: 65536}
	if err := sv.validate(); err != nil {
		t.Fatal(err)
	}
	law := newServiceSampler(sv).(paretoLaw)
	// The solved cutoff must reproduce the spec mean analytically.
	if m := boundedParetoMean(law.low, law.high, law.alpha); math.Abs(m-sv.Mean) > 1e-6 {
		t.Fatalf("solveParetoLow: analytic mean %g, want %g", m, sv.Mean)
	}
	rng := xrand.NewSource(xrand.Tag(3, "dist.pareto"))
	samples := make([]float64, n)
	var sum float64
	for i := range samples {
		samples[i] = float64(law.Sample(rng))
		sum += samples[i]
	}
	if got := sum / float64(n); math.Abs(got-sv.Mean)/sv.Mean > 0.05 {
		t.Errorf("empirical mean %.1f, want %g ±5%%", got, sv.Mean)
	}
	cdf := func(x float64) float64 {
		lh := math.Pow(law.low/law.high, law.alpha)
		return (1 - math.Pow(law.low/x, law.alpha)) / (1 - lh)
	}
	// Equal-probability deciles of the continuous law, snapped to
	// half-integers; expected probabilities recomputed at the snapped edges.
	const bins = 10
	edges := make([]float64, bins-1)
	for i := range edges {
		q := float64(i+1) / bins
		lh := math.Pow(law.low/law.high, law.alpha)
		edges[i] = law.low * math.Pow(1-q*(1-lh), -1/law.alpha)
	}
	edges = halfIntegerEdges(edges)
	probs := make([]float64, bins)
	prev := 0.0
	for i, e := range edges {
		p := cdf(e)
		probs[i] = p - prev
		prev = p
	}
	probs[bins-1] = 1 - prev
	if p := chiSquareP(t, samples, edges, probs); p < 1e-3 {
		t.Errorf("bounded-Pareto samples reject the law: p=%g", p)
	}
}

// TestLognormalMeanAndShape: exp(μ+σZ) with μ = ln(mean) − σ²/2 must hit the
// exact mean and match the lognormal CDF on half-integer-snapped deciles.
func TestLognormalMeanAndShape(t *testing.T) {
	n := distN(t, 400000)
	sv := ServiceSpec{Law: ServiceLognormal, Mean: 512, Sigma: 1.5}
	if err := sv.validate(); err != nil {
		t.Fatal(err)
	}
	law := newServiceSampler(sv).(lognormalLaw)
	rng := xrand.NewSource(xrand.Tag(5, "dist.lognormal"))
	samples := make([]float64, n)
	var sum float64
	for i := range samples {
		samples[i] = float64(law.Sample(rng))
		sum += samples[i]
	}
	// Heavy tail (σ=1.5): the mean estimator's relative SE is
	// √(e^{σ²}−1)/√n ≈ 2.9/√n ≈ 0.46% at n=400k; 4% is ~8σ.
	if got := sum / float64(n); math.Abs(got-sv.Mean)/sv.Mean > 0.04 {
		t.Errorf("empirical mean %.1f, want %g ±4%%", got, sv.Mean)
	}
	// Decile z-quantiles of the standard normal.
	zq := []float64{-1.2815515655, -0.8416212336, -0.5244005127, -0.2533471031,
		0, 0.2533471031, 0.5244005127, 0.8416212336, 1.2815515655}
	edges := make([]float64, len(zq))
	for i, z := range zq {
		edges[i] = math.Exp(law.mu + law.sigma*z)
	}
	edges = halfIntegerEdges(edges)
	probs := make([]float64, len(edges)+1)
	prev := 0.0
	for i, e := range edges {
		p := normalCDF((math.Log(e) - law.mu) / law.sigma)
		probs[i] = p - prev
		prev = p
	}
	probs[len(probs)-1] = 1 - prev
	if p := chiSquareP(t, samples, edges, probs); p < 1e-3 {
		t.Errorf("lognormal samples reject the law: p=%g", p)
	}
}

// TestUniformLawExactMean: the uniform service law must keep its exact-mean
// property — integers on [1, 2m−1] with mean exactly m.
func TestUniformLawExactMean(t *testing.T) {
	n := distN(t, 200000)
	law := newServiceSampler(ServiceSpec{Law: ServiceUniform, Mean: 64}).(uniformLaw)
	rng := xrand.NewSource(xrand.Tag(9, "dist.uniform"))
	var sum float64
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for i := 0; i < n; i++ {
		s := law.Sample(rng)
		sum += float64(s)
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if lo < 1 || hi > 127 {
		t.Errorf("uniform(64) support [%d,%d], want [1,127]", lo, hi)
	}
	// SE of the mean ≈ 36.6/√n ≈ 0.08 at n=200k; allow 1.0.
	if got := sum / float64(n); math.Abs(got-64) > 1 {
		t.Errorf("uniform mean %.2f, want 64", got)
	}
}

// TestHeavytailTraceClassShares: generation must respect class weights (3:1
// in the heavytail preset) within binomial noise.
func TestHeavytailTraceClassShares(t *testing.T) {
	n := distN(t, 100000)
	spec, err := Preset("heavytail")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(spec, 13, n, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.ClassJobs()
	share0 := float64(counts[0]) / float64(n)
	if math.Abs(share0-0.75) > 0.01 {
		t.Errorf("class 0 share %.4f, want 0.75 ±0.01", share0)
	}
}
