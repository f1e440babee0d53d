package xrand

import "testing"

// TestSourceOpsAllocationFree: every //powervet:hotpath Source method sits
// inside the per-operation sampling path of the MultiQueue and the models;
// none may allocate.
func TestSourceOpsAllocationFree(t *testing.T) {
	s := NewSource(97)
	sink := uint64(0)
	if avg := testing.AllocsPerRun(200, func() {
		sink += s.Uint64()
		sink += uint64(s.Intn(1000))
		if s.Float64() < -1 || s.ExpFloat64() < 0 {
			t.Fatal("impossible sample")
		}
		a, b := s.TwoDistinct(64)
		sink += uint64(a + b)
		if s.Bernoulli(0.5) {
			sink++
		}
		a, b = s.TwoBounded32(64)
		sink += uint64(a + b)
		a, b = s.TwoDistinct32(64)
		sink += uint64(a + b)
		if s.Coin(1 << 63) {
			sink++
		}
	}); avg != 0 {
		t.Errorf("Source hot-path methods allocate %.2f objects per op, want 0", avg)
	}
	_ = sink
}
