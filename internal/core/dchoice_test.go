package core

import (
	"sort"
	"testing"

	"powerchoice/internal/xrand"
)

func TestChoicesValidation(t *testing.T) {
	if _, err := New[int](WithQueues(4), WithChoices(5)); err == nil {
		t.Error("choices > queues accepted")
	}
	if _, err := New[int](WithQueues(4), WithChoices(-2)); err == nil {
		t.Error("negative choices accepted")
	}
	mq := mustNew[int](t, WithQueues(8), WithChoices(4))
	if mq.Choices() != 4 {
		t.Errorf("Choices = %d", mq.Choices())
	}
	// Default is 2 (or 1 with a single queue).
	if got := mustNew[int](t, WithQueues(8)).Choices(); got != 2 {
		t.Errorf("default Choices = %d", got)
	}
	if got := mustNew[int](t, WithQueues(1)).Choices(); got != 1 {
		t.Errorf("single-queue Choices = %d", got)
	}
}

// TestChoicesEqualsQueuesSequentialExact: with d = n every single-threaded
// deletion inspects all cached tops and must pop the global minimum.
func TestChoicesEqualsQueuesSequentialExact(t *testing.T) {
	const nq = 8
	mq := mustNew[int](t, WithQueues(nq), WithChoices(nq), WithSeed(3))
	rng := xrand.NewSource(4)
	const n = 3000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() % 100000
		mq.Insert(keys[i], i)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, want := range keys {
		k, _, ok := mq.DeleteMin()
		if !ok || k != want {
			t.Fatalf("pop %d = (%d,%v), want %d", i, k, ok, want)
		}
	}
}

// TestChoicesMultisetPreserved exercises the d>2 sampling path end to end.
func TestChoicesMultisetPreserved(t *testing.T) {
	for _, d := range []int{1, 3, 4, 8} {
		mq := mustNew[int](t, WithQueues(8), WithChoices(d), WithBeta(0.8), WithSeed(5))
		const n = 4000
		for i := 0; i < n; i++ {
			mq.Insert(uint64(i%977), i)
		}
		count := 0
		for {
			if _, _, ok := mq.DeleteMin(); !ok {
				break
			}
			count++
		}
		if count != n {
			t.Fatalf("d=%d: recovered %d of %d", d, count, n)
		}
	}
}

// TestChoicesImproveRank: at equal β, larger d yields smaller mean rank on
// the drained sequence.
func TestChoicesImproveRank(t *testing.T) {
	const nq = 8
	const m = 20000
	meanRank := func(d int) float64 {
		mq := mustNew[int](t, WithQueues(nq), WithChoices(d), WithSeed(6))
		for i := 0; i < m; i++ {
			mq.Insert(uint64(i), i)
		}
		present := make([]bool, m)
		for i := range present {
			present[i] = true
		}
		var sum float64
		for i := 0; i < m/2; i++ {
			k, _, _ := mq.DeleteMin()
			rank := 0
			for l := 0; l <= int(k); l++ {
				if present[l] {
					rank++
				}
			}
			present[k] = false
			sum += float64(rank)
		}
		return sum / float64(m/2)
	}
	m2, m4 := meanRank(2), meanRank(4)
	if m4 >= m2 {
		t.Errorf("rank not improved by d: d=2 gives %v, d=4 gives %v", m2, m4)
	}
}

// TestDefaultConfigFlipsNoCoins pins the zero-coin claim of README and
// drawplan.go: under the default β = 1, d = 2 and no shards, an Insert draws
// one Intn(n) and a DeleteMin one TwoDistinct32(n), with no coin flip. A
// clone of the handle's source replays exactly those draws, and the
// handle's stream must end where the clone's does. β = 0.5 is the control:
// its per-DeleteMin coin puts the two streams out of step.
func TestDefaultConfigFlipsNoCoins(t *testing.T) {
	inStep := func(beta float64) bool {
		mq := mustNew[int](t, WithBeta(beta), WithSeed(71))
		n := mq.NumQueues()
		h := mq.Handle()
		// 64 elements per queue: no sampled pair is ever all-empty, so no
		// DeleteMin below re-samples.
		for i := 0; i < 64*n; i++ {
			h.Insert(uint64(i), i)
		}
		for pair := 0; pair < 16; pair++ {
			clone := h.sel.rng.Clone()
			h.Insert(uint64(pair), pair)
			if _, _, ok := h.DeleteMin(); !ok {
				t.Fatal("DeleteMin reported a prefilled structure empty")
			}
			clone.Intn(n)
			clone.TwoDistinct32(n)
			if h.sel.rng.Uint64() != clone.Uint64() {
				return false
			}
		}
		return true
	}
	if !inStep(1) {
		t.Error("default configuration drew more than one Intn and one TwoDistinct32 per Insert/DeleteMin pair")
	}
	if inStep(0.5) {
		t.Error("β = 0.5 stayed in step with the coin-free replay; the check cannot see a coin flip")
	}
}
