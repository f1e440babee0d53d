package seqproc

import "testing"

func TestChoicesValidation(t *testing.T) {
	if _, err := New(Config{N: 1, Beta: 1, Choices: 2}, 10); err == nil {
		t.Error("choices > n accepted")
	}
	if _, err := New(Config{N: 4, Beta: 1, Choices: 3}, 10); err == nil {
		t.Error("choices 3 accepted: only the paper's two-choice rule is modelled")
	}
	if _, err := New(Config{N: 4, Beta: 1, Choices: -1}, 10); err == nil {
		t.Error("negative choices accepted")
	}
	// N=1 defaults choices to 1.
	if _, err := New(Config{N: 1, Beta: 1}, 10); err != nil {
		t.Errorf("n=1 default rejected: %v", err)
	}
}

// TestDChoiceEqualsNIsExact: sampling every queue makes every removal take
// the global minimum — rank exactly 1 at every step.
func TestDChoiceEqualsNIsExact(t *testing.T) {
	const n, m = 2, 4000
	p, err := New(Config{N: n, Beta: 1, Choices: n, Seed: 3}, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InsertMany(m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		r, ok := p.Remove()
		if !ok {
			t.Fatalf("drained at %d", i)
		}
		if r.Rank != 1 {
			t.Fatalf("step %d: rank %d with d=n, want 1", i, r.Rank)
		}
		if r.Label != i {
			t.Fatalf("step %d: label %d, want %d", i, r.Label, i)
		}
	}
}

// TestDChoiceMonotoneRank: more choices, lower average rank. At β = 1,
// d = 1 is the single-choice process, whose mean rank keeps growing
// (Theorem 6), and d = 2 the paper's rule.
func TestDChoiceMonotoneRank(t *testing.T) {
	const n = 32
	mean := func(d int) float64 {
		series, err := Run(RunSpec{
			Cfg:         Config{N: n, Beta: 1, Choices: d, Seed: 7},
			Prefill:     n * 64,
			Steps:       n * 256,
			SampleEvery: n * 64,
			Reinsert:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return series.Overall.Mean()
	}
	if m1, m2 := mean(1), mean(2); !(m2 < m1) {
		t.Errorf("ranks not monotone in d: d=1: %v, d=2: %v", m1, m2)
	}
}

// TestDChoiceRemovesBestSampled: the removed label is never worse than any
// sampled queue's top. Verified indirectly: with d = n-1 the rank can be at
// most the size of the one unsampled queue + 1.
func TestDChoiceRemovesBestSampled(t *testing.T) {
	const n, m = 3, 800
	p, err := New(Config{N: n, Beta: 1, Choices: n - 1, Seed: 11}, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InsertMany(m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m/2; i++ {
		// Max elements in any single queue bounds the rank: the removal is
		// the min over n-1 queues, so only the unsampled queue's elements
		// can be smaller.
		maxQ := 0
		for q := 0; q < n; q++ {
			sz := len(p.queues[q]) - p.heads[q]
			if sz > maxQ {
				maxQ = sz
			}
		}
		r, ok := p.Remove()
		if !ok {
			break
		}
		if r.Rank > int64(maxQ)+1 {
			t.Fatalf("step %d: rank %d exceeds bound %d", i, r.Rank, maxQ+1)
		}
	}
}
