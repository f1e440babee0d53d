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
	choices    int
	stickiness int
	shards     int
	localBias  float64
	seed       uint64
	atomicMode bool

	// resolved bookkeeping, filled in by buildOptions.
	queuesPinned  bool
	choicesPinned bool
}

// WithQueues sets the number of internal queues explicitly. It overrides
// WithQueueFactor and bypasses the derived-queue floor: an explicit n is
// honoured exactly, even when it degenerates the structure (n = choices).
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

// WithChoices sets d, the number of queues sampled by a choice-deletion
// (the d-choice generalisation; the paper's rule and the default is d=2).
// Larger d tightens rank quality at the cost of d top reads per deletion;
// d equal to the queue count degenerates to an exact — but contended —
// queue.
func WithChoices(d int) Option {
	return func(c *config) { c.choices = d }
}

// WithStickiness makes each handle reuse its sampled queue(s) for up to s
// consecutive operations before re-randomising, a variant used by the
// MultiQueue line of work (§2 mentions such variants; later MultiQueue
// papers study it as "stickiness"): fewer random queue switches mean
// better cache locality at a modest rank-quality cost. s=1 (the default)
// is the paper's fully random rule. A sticky streak breaks early whenever
// the remembered queue is contended or empty.
func WithStickiness(s int) Option {
	return func(c *config) { c.stickiness = s }
}

// WithShards partitions the internal queues into g contiguous shards and
// pins every handle to a home shard, round-robin in handle-creation order.
// Shards only change behaviour together with WithLocalBias: a biased sample
// draws all of its candidates (both queues of a two-choice deletion, all d
// of a d-choice) from the handle's home shard, touching one small slice of
// the topology instead of random cache lines across all n queues.
//
// The requested g is clamped so that every shard keeps at least `choices`
// queues — a smaller shard could not supply d distinct candidates — and
// Config.Shards reports the resolved count, mirroring how derived queue
// counts are floored and reported. g ≤ 1 (the default) is unsharded.
func WithShards(g int) Option {
	return func(c *config) { c.shards = g }
}

// WithLocalBias sets p, the probability that a sharded handle samples
// within its home shard; with probability 1−p it samples globally, exactly
// as an unsharded MultiQueue would. p = 0 (the default) disables locality
// even when shards are configured; p = 1 samples home-only, with a global
// fallback draw whenever the home shard is found empty (liveness: elements
// in foreign shards must stay reachable). The locality is paid for in rank
// quality — see the documented shard slack in bench's
// TestRankQualityShardedSlack.
func WithLocalBias(p float64) Option {
	return func(c *config) { c.localBias = p }
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
	c.choicesPinned = c.choices != 0
	if !c.choicesPinned {
		// A defaulted d must leave genuine relaxation: d = n samples every
		// queue and is exact. Derive d = min(2, n-1), clamped to at least 1
		// (n = 1 is inherently exact — there is nothing to choose between).
		c.choices = 2
		if c.choices >= c.queues {
			c.choices = c.queues - 1
			if c.choices < 1 {
				c.choices = 1
			}
		}
	}
	if c.choices < 1 || c.choices > c.queues {
		return c, fmt.Errorf("core: choices %d outside [1,%d]", c.choices, c.queues)
	}
	if c.stickiness == 0 {
		c.stickiness = 1
	}
	if c.stickiness < 1 {
		return c, fmt.Errorf("core: stickiness %d < 1", c.stickiness)
	}
	if c.shards < 0 {
		return c, fmt.Errorf("core: shards %d < 0", c.shards)
	}
	if c.shards == 0 {
		c.shards = 1
	}
	if c.localBias < 0 || c.localBias > 1 {
		return c, fmt.Errorf("core: local bias %v outside [0,1]", c.localBias)
	}
	// Clamp the shard count so every shard keeps at least `choices` queues:
	// shards are the contiguous ranges [i·n/g, (i+1)·n/g), whose minimum
	// size is ⌊n/g⌋, and a scope-local d-choice needs d distinct candidates.
	// Like the derived-queue floor, the resolved value is reported
	// (Config.Shards) rather than silently acted on.
	if maxShards := c.queues / c.choices; c.shards > maxShards {
		c.shards = maxShards
		if c.shards < 1 {
			c.shards = 1
		}
	}
	return c, nil
}
