package core

import "testing"

// TestChoicesValidation pins the d that no option can set and the check that
// still reads it: two choices on eight queues, one on a single queue, and a
// Resize that accepts exactly d queues but rejects fewer.
func TestChoicesValidation(t *testing.T) {
	if got := mustNew[int](t, WithQueues(1)).Config().Choices; got != 1 {
		t.Errorf("single-queue Choices = %d", got)
	}
	mq := mustNew[int](t, WithQueues(8))
	d := mq.Config().Choices
	if d != 2 {
		t.Fatalf("default Choices = %d", d)
	}
	if err := mq.Resize(d - 1); err == nil {
		t.Errorf("Resize to %d queues accepted below Choices %d", d-1, d)
	}
	if err := mq.Resize(d); err != nil {
		t.Errorf("Resize to exactly Choices queues: %v", err)
	}
}

// TestDefaultConfigFlipsNoCoins pins the zero-coin claim of README and
// drawplan.go: under the default β = 1 and d = 2, an Insert draws
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
