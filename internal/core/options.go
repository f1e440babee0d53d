package core

import (
	"fmt"
	"runtime"
)

// Option configures a MultiQueue.
type Option func(*config)

// minDerivedQueues is the floor applied to queue counts derived from
// factor × GOMAXPROCS. Without it, a small machine (GOMAXPROCS ≤ 2) would
// resolve to n = 2 queues, where the default d = 2 choice-deletion samples
// *every* queue and the (1+β) MultiQueue silently degenerates into an exact
// — but contended — queue. Four queues keep choices < queues on any host, so
// the structure's relaxation (and the paper's predicted rank behaviour) is
// machine-independent. WithQueues bypasses the floor.
const minDerivedQueues = 4

type config struct {
	queues     int
	factor     int
	beta       float64
	seed       uint64
	atomicMode bool

	// resolved bookkeeping, filled in by buildOptions.
	choices      int
	queuesPinned bool
}

// WithQueues sets the number of internal queues explicitly. It overrides
// WithQueueFactor and bypasses the derived-queue floor: an explicit n is
// honoured exactly, even when it leaves no two-choice deletion (n ≤ 2, see
// buildOptions).
func WithQueues(n int) Option {
	return func(c *config) { c.queues = n }
}

// WithQueueFactor derives the queue count as max(4, factor × GOMAXPROCS),
// the paper's n = c·P configuration with a floor that keeps choices < queues
// on small machines (see minDerivedQueues). The default factor is 2.
func WithQueueFactor(factor int) Option {
	return func(c *config) { c.factor = factor }
}

// WithBeta sets the probability of using two-choice deletion; 1-β of
// deletions use a single random queue. β=1 is the original MultiQueue;
// the paper finds β ∈ {0.5, 0.75} improves throughput by up to 20% at a
// modest rank-quality cost. The default is 1.
func WithBeta(beta float64) Option {
	return func(c *config) { c.beta = beta }
}

// WithSeed fixes the root seed of the per-handle random streams.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithAtomic makes the compare-and-remove pair execute under a single
// global lock, realising distributional linearizability (Appendix C): the
// removal distribution then provably matches the paper's sequential
// process. Throughput suffers; the mode exists for validation and as the
// A3 ablation baseline.
func WithAtomic(enabled bool) Option {
	return func(c *config) { c.atomicMode = enabled }
}

func buildOptions(opts []Option) (config, error) {
	c := config{
		factor: 2,
		beta:   1,
		seed:   0x9e3779b97f4a7c15,
	}
	for _, o := range opts {
		o(&c)
	}
	c.queuesPinned = c.queues != 0
	if !c.queuesPinned {
		if c.factor < 1 {
			return c, fmt.Errorf("core: queue factor %d < 1", c.factor)
		}
		c.queues = c.factor * runtime.GOMAXPROCS(0)
		if c.queues < minDerivedQueues {
			c.queues = minDerivedQueues
		}
	}
	if c.queues < 1 {
		return c, fmt.Errorf("core: need at least one queue, got %d", c.queues)
	}
	if c.beta < 0 || c.beta > 1 {
		return c, fmt.Errorf("core: beta %v outside [0,1]", c.beta)
	}
	// d, the number of queues a choice-deletion samples, is the paper's two
	// wherever that leaves genuine relaxation: d = n samples every queue and
	// is exact. So d = min(2, n-1), floored at 1 (n = 1 is inherently exact —
	// there is nothing to choose between).
	c.choices = max(1, min(2, c.queues-1))
	return c, nil
}
