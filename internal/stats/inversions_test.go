package stats

import (
	"testing"
	"testing/quick"

	"powerchoice/internal/xrand"
)

// naiveInversions is the O(n²) reference model.
func naiveInversions(xs []uint64) int64 {
	var inv int64
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			if xs[i] > xs[j] {
				inv++
			}
		}
	}
	return inv
}

func TestInversionsKnown(t *testing.T) {
	cases := []struct {
		xs   []uint64
		want int64
	}{
		{nil, 0},
		{[]uint64{1}, 0},
		{[]uint64{1, 2, 3}, 0},
		{[]uint64{3, 2, 1}, 3},
		{[]uint64{2, 1, 3}, 1},
		{[]uint64{1, 3, 2, 4}, 1},
		{[]uint64{5, 5, 5}, 0}, // equal elements are not inversions
		{[]uint64{2, 1, 2, 1}, 3},
	}
	for _, c := range cases {
		if got := Inversions(c.xs); got != c.want {
			t.Errorf("Inversions(%v) = %d, want %d", c.xs, got, c.want)
		}
	}
}

func TestInversionsDoesNotMutate(t *testing.T) {
	xs := []uint64{3, 1, 2}
	Inversions(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestInversionsMatchesNaive(t *testing.T) {
	rng := xrand.NewSource(5)
	check := func(raw []uint16) bool {
		xs := make([]uint64, len(raw))
		for i, r := range raw {
			xs[i] = uint64(r % 50)
		}
		return Inversions(xs) == naiveInversions(xs)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// And one larger randomized case.
	xs := make([]uint64, 2000)
	for i := range xs {
		xs[i] = rng.Uint64() % 1000
	}
	if got, want := Inversions(xs), naiveInversions(xs); got != want {
		t.Errorf("large case: %d, want %d", got, want)
	}
}

func BenchmarkInversions(b *testing.B) {
	rng := xrand.NewSource(1)
	xs := make([]uint64, 1<<14)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Inversions(xs)
	}
}
