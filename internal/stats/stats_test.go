package stats

import (
	"math"
	"testing"
	"testing/quick"

	"powerchoice/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasic(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v", w.Mean())
	}
	// Unbiased sample variance of this classic dataset is 32/7.
	if !almostEqual(w.Var(), 32.0/7, 1e-12) {
		t.Errorf("Var = %v, want %v", w.Var(), 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.N() != 0 {
		t.Error("zero-value Welford not zeroed")
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := xrand.NewSource(5)
	check := func(split uint8) bool {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = rng.Float64()*100 - 50
		}
		k := int(split) % 100
		var all, left, right Welford
		for i, x := range xs {
			all.Add(x)
			if i < k {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.Merge(right)
		return left.N() == all.N() &&
			almostEqual(left.Mean(), all.Mean(), 1e-9) &&
			almostEqual(left.Var(), all.Var(), 1e-9) &&
			left.Min() == all.Min() && left.Max() == all.Max()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmptySides(t *testing.T) {
	var a, b Welford
	a.Add(3)
	a.Merge(b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 3 {
		t.Error("merge with empty changed summary")
	}
	var c Welford
	c.Merge(a) // merging into empty copies
	if c.N() != 1 || c.Mean() != 3 {
		t.Error("merge into empty failed")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40}, {40, 29},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
		// xs ascends, so SortedPercentile reads it as it is.
		if got, want := SortedPercentile(xs, c.p), Percentile(xs, c.p); got != want {
			t.Errorf("SortedPercentile(%v) = %v, Percentile %v", c.p, got, want)
		}
	}
	// Input must be unmodified.
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileSingleton(t *testing.T) {
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("singleton percentile = %v", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
		func() { SortedPercentile(nil, 50) },
		func() { SortedPercentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestLinFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	a, b, r2, err := LinFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, 3, 1e-9) || !almostEqual(b, 2, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Errorf("LinFit = (%v, %v, %v)", a, b, r2)
	}
}

func TestLinFitNoisy(t *testing.T) {
	rng := xrand.NewSource(9)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 10 - 0.5*xs[i] + (rng.Float64()-0.5)*2
	}
	a, b, r2, err := LinFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, 10, 0.5) || !almostEqual(b, -0.5, 0.02) {
		t.Errorf("LinFit = (%v, %v)", a, b)
	}
	if r2 < 0.95 {
		t.Errorf("R² = %v too low", r2)
	}
}

func TestLinFitDegenerate(t *testing.T) {
	if _, _, _, err := LinFit([]float64{1}, []float64{2}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, _, err := LinFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("vertical line accepted")
	}
	if _, _, _, err := LinFit([]float64{1, 2}, []float64{3}); err == nil {
		t.Error("length mismatch accepted")
	}
	// Horizontal line is fine and fits perfectly.
	_, b, r2, err := LinFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil || b != 0 || r2 != 1 {
		t.Errorf("horizontal fit = (b=%v, r2=%v, err=%v)", b, r2, err)
	}
}

func TestPowerFitRecoversExponent(t *testing.T) {
	// y = 2.5 * x^0.5 — the shape of the Theorem 6 divergence in t.
	xs := []float64{10, 100, 1000, 10000, 100000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5 * math.Sqrt(x)
	}
	c, p, r2, err := PowerFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 2.5, 1e-6) || !almostEqual(p, 0.5, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Errorf("PowerFit = (%v, %v, %v)", c, p, r2)
	}
}

func TestPowerFitRejectsNonPositive(t *testing.T) {
	if _, _, _, err := PowerFit([]float64{1, 0}, []float64{1, 1}); err == nil {
		t.Error("zero x accepted")
	}
	if _, _, _, err := PowerFit([]float64{1, 2}, []float64{-1, 1}); err == nil {
		t.Error("negative y accepted")
	}
}

func TestChiSquareUniformFit(t *testing.T) {
	// Sample a genuinely uniform distribution: p-value should be comfortably
	// above rejection thresholds with a fixed healthy seed.
	rng := xrand.NewSource(123)
	const k, trials = 10, 100000
	obs := make([]float64, k)
	exp := make([]float64, k)
	for i := 0; i < trials; i++ {
		obs[rng.Intn(k)]++
	}
	for i := range exp {
		exp[i] = trials / k
	}
	chi2, p, err := ChiSquare(obs, exp)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Errorf("uniform sample rejected: chi2=%v p=%v", chi2, p)
	}
}

func TestChiSquareDetectsSkew(t *testing.T) {
	obs := []float64{500, 100, 100, 100}
	exp := []float64{200, 200, 200, 200}
	_, p, err := ChiSquare(obs, exp)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Errorf("obvious skew not detected: p=%v", p)
	}
}

func TestChiSquareKnownValue(t *testing.T) {
	// chi2 = 1 with df = 1: p = P[X>1] ≈ 0.3173.
	obs := []float64{55, 45}
	exp := []float64{50, 50}
	chi2, p, err := ChiSquare(obs, exp)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(chi2, 1, 1e-12) {
		t.Errorf("chi2 = %v, want 1", chi2)
	}
	if !almostEqual(p, 0.31731, 1e-3) {
		t.Errorf("p = %v, want ~0.3173", p)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, err := ChiSquare(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := ChiSquare([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := ChiSquare([]float64{1, 1}, []float64{0, 2}); err == nil {
		t.Error("zero expected accepted")
	}
}

func TestGammaPReferenceValues(t *testing.T) {
	// P(1, x) = 1 - e^-x (chi-square df=2).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := gammaP(1, x); !almostEqual(got, want, 1e-10) {
			t.Errorf("gammaP(1, %v) = %v, want %v", x, got, want)
		}
	}
	// P(1/2, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := gammaP(0.5, x); !almostEqual(got, want, 1e-10) {
			t.Errorf("gammaP(0.5, %v) = %v, want %v", x, got, want)
		}
	}
	if got := gammaP(2, 0); got != 0 {
		t.Errorf("gammaP(2,0) = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for _, x := range []float64{0, 1, 1.5, 2, 3, 4, 7, 8, 1e9} {
		h.Add(x)
	}
	if h.Total() != 9 {
		t.Errorf("Total = %d", h.Total())
	}
	if got := h.Bucket(0); got != 3 { // 0, 1, 1.5
		t.Errorf("bucket 0 = %d, want 3", got)
	}
	if got := h.Bucket(1); got != 2 { // 2, 3
		t.Errorf("bucket 1 = %d, want 2", got)
	}
	if got := h.Bucket(2); got != 2 { // 4, 7
		t.Errorf("bucket 2 = %d, want 2", got)
	}
	if got := h.Bucket(3); got != 1 { // 8
		t.Errorf("bucket 3 = %d, want 1", got)
	}
	if got := h.Bucket(10); got != 1 { // clamped 1e9
		t.Errorf("overflow bucket = %d, want 1", got)
	}
	if h.Bucket(-1) != 0 || h.Bucket(99) != 0 {
		t.Error("out-of-range bucket not zero")
	}
	if h.String() == "" {
		t.Error("empty render")
	}
}

func TestHistogramNegativeMaxBucket(t *testing.T) {
	h := NewHistogram(-5)
	h.Add(100)
	if h.Total() != 1 || h.NumBuckets() != 1 {
		t.Error("negative maxBucket not clamped to single bucket")
	}
}
