package core

import (
	"fmt"
	"runtime"
	"testing"
)

// TestDerivedTopologyNeverDegenerate is the regression test for the
// GOMAXPROCS-coupled degeneracy: on a machine with P ≤ 2 the old derivation
// n = 2·P gave n = 2 queues, the default d = 2 then sampled every queue, and
// the (1+β) MultiQueue silently became an exact queue. A derived topology
// must always keep choices < queues, on any core count, so the checks run
// at GOMAXPROCS 1 (where only the floor keeps n above 2), 2 and 8.
func TestDerivedTopologyNeverDegenerate(t *testing.T) {
	t.Run(fmt.Sprintf("factor=%d", queueFactor), func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			cfg := mustNew[int](t).Config()
			if cfg.QueuesPinned {
				t.Errorf("P=%d: derived topology reported as pinned", procs)
			}
			if cfg.Queues < minDerivedQueues {
				t.Errorf("P=%d: derived queues = %d, want ≥ %d", procs, cfg.Queues, minDerivedQueues)
			}
			if want := queueFactor * procs; want > minDerivedQueues && cfg.Queues != want {
				t.Errorf("P=%d: derived queues = %d, want factor·GOMAXPROCS = %d", procs, cfg.Queues, want)
			}
			if cfg.Choices >= cfg.Queues {
				t.Errorf("P=%d: derived topology degenerate: choices %d ≥ queues %d", procs, cfg.Choices, cfg.Queues)
			}
		}
	})
}

// TestDefaultedChoicesNeverEqualQueues: even when the queue count is pinned
// low, d must not silently sample every queue. It resolves to the paper's
// two wherever that leaves relaxation, d = min(2, n-1), floored at 1 for
// n = 1 — a single queue is exact by construction.
func TestDefaultedChoicesNeverEqualQueues(t *testing.T) {
	for n := 1; n <= 8; n++ {
		mq := mustNew[int](t, WithQueues(n))
		cfg := mq.Config()
		if !cfg.QueuesPinned {
			t.Errorf("n=%d: pinned topology reported as derived", n)
		}
		want := 2
		if n <= 2 {
			want = 1
		}
		if cfg.Choices != want {
			t.Errorf("n=%d: choices = %d, want %d", n, cfg.Choices, want)
		}
	}
}

// TestConfigReportsResolvedTopology checks the Config accessor against every
// requested parameter.
func TestConfigReportsResolvedTopology(t *testing.T) {
	mq := mustNew[int](t,
		WithQueues(8), WithBeta(0.75), WithSeed(99))
	cfg := mq.Config()
	if cfg.Queues != 8 || cfg.Choices != 2 || cfg.Beta != 0.75 ||
		cfg.Seed != 99 || cfg.Atomic || !cfg.QueuesPinned {
		t.Errorf("Config = %+v", cfg)
	}
	if cfg.Queues != mq.NumQueues() || cfg.Beta != mq.Beta() {
		t.Errorf("Config disagrees with accessors: %+v", cfg)
	}
}
