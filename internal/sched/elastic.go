package sched

// Elastic topology control: while armed, the controller samples the
// open-system executor's pending count every controlEvery and turns those
// samples into grow/shrink decisions against a Resizable queue. The control
// law is deliberately boring — watermark thresholds on mean backlog per
// queue, a consecutive-sample window as hysteresis, and doubling/halving
// steps clamped to a configured range — because the queue underneath gives
// the strong guarantees (exact-once, liveness, epoch-versioned snapshots);
// the controller only has to avoid flapping.

import (
	"sync/atomic"
	"time"
)

// Resizable is the seam between the executor and an elastically-sized queue:
// core.MultiQueue satisfies it (through the pqadapt adapter), and anything
// else that can reconfigure its internal parallelism online can too.
type Resizable interface {
	// NumQueues reports the live internal queue count.
	NumQueues() int
	// Resize reconfigures to the given queue count. Callers pass shards = 0:
	// the MultiQueue has no shard partition, and its adapter rejects
	// shards > 1 with an error rather than drop the request.
	// Implementations must be safe to call concurrently with queue
	// operations.
	Resize(queues, shards int) error
	// Epoch is the live topology version: 0 at construction, +1 per
	// completed resize.
	Epoch() uint64
	// Resizes counts completed resizes.
	Resizes() int64
}

// ElasticConfig arms the sampler-driven resize controller in RunOpen.
// The controller is armed only when Enable is set and the queue implements
// Resizable. RunOpen then starts one sampler goroutine, its clock, which
// reads the pending count every controlEvery (1 ms).
type ElasticConfig struct {
	// Enable arms the controller.
	Enable bool
	// MinQueues / MaxQueues clamp the resize range. Zero values default to
	// the queue count observed when the run starts (i.e. that direction of
	// scaling is disabled until set). MinQueues must stay at or above the
	// queue's d-choice sample size or shrink resizes will fail and be
	// abandoned.
	MinQueues, MaxQueues int
	// HighWater / LowWater are mean-backlog-per-queue thresholds: a sample
	// with pending/NumQueues > HighWater counts toward growing, one with
	// pending/NumQueues < LowWater toward shrinking. Defaults: 8 and 1.
	// LowWater is clamped below HighWater (the hysteresis band).
	HighWater, LowWater float64
	// Window is the number of consecutive out-of-band samples required to
	// trigger a resize (default 3). Larger windows trade reaction time for
	// stability.
	Window int
}

// controlEvery is the armed controller's sampling period, so Window counts
// milliseconds. It is about the period powerbench serve -elastic sampled at
// by default (500,000 jobs at ρ 0.8 on one worker) when the period aimed
// at 256 samples per run.
const controlEvery = time.Millisecond

// elasticController holds the armed controller's state, owned by the sampler
// goroutine (observe is never called concurrently).
type elasticController struct {
	r            Resizable
	cfg          ElasticConfig
	hiStreak     int
	loStreak     int
	baseResizes  int64 // Resizes() at arm time; stats report the delta
	shrinkFailed bool  // a shrink was rejected; stop retrying below that size
}

// newElasticController normalizes cfg against the queue's current size and
// returns the armed controller.
func newElasticController(r Resizable, cfg ElasticConfig) *elasticController {
	n := r.NumQueues()
	if cfg.MinQueues <= 0 {
		cfg.MinQueues = n
	}
	if cfg.MaxQueues <= 0 {
		cfg.MaxQueues = n
	}
	if cfg.MaxQueues < cfg.MinQueues {
		cfg.MaxQueues = cfg.MinQueues
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = 8
	}
	if cfg.LowWater <= 0 {
		cfg.LowWater = 1
	}
	if cfg.LowWater >= cfg.HighWater {
		cfg.LowWater = cfg.HighWater / 2
	}
	if cfg.Window < 1 {
		cfg.Window = 3
	}
	return &elasticController{r: r, cfg: cfg, baseResizes: r.Resizes()}
}

// run is the sampler: it feeds observe the pending count at every multiple
// of controlEvery since start, until stop is closed. It paces its instants
// against start as the producers pace arrivals (sampleWait), not with a
// time.Ticker: a ticker fires only when the P whose timer heap holds it
// passes through the scheduler, and a worker serving a busy period can keep
// that P for milliseconds. A yield puts the sampler on the global run
// queue, which every P serves.
func (c *elasticController) run(start time.Time, pending *atomic.Int64, stop <-chan struct{}) {
	for due := controlEvery; ; {
		now, ok := sampleWait(start, due, stop)
		if !ok {
			return
		}
		c.observe(pending.Load())
		// The first instant after now: a late sample is not followed by a
		// burst of catch-up samples, as a ticker drops the ticks it could
		// not deliver.
		due = (now/controlEvery + 1) * controlEvery
	}
}

// observe feeds one pending-count sample through the control law: track
// consecutive out-of-band samples, and on a full window double (clamped to
// MaxQueues) or halve (clamped to MinQueues) the queue count. Streaks reset
// after a resize — the next decision starts from fresh evidence against the
// new topology — and whenever a sample falls back inside the band.
func (c *elasticController) observe(pending int64) {
	n := c.r.NumQueues()
	backlog := float64(pending) / float64(n)
	switch {
	case backlog > c.cfg.HighWater:
		c.loStreak = 0
		c.hiStreak++
		if c.hiStreak >= c.cfg.Window && n < c.cfg.MaxQueues {
			target := n * 2
			if target > c.cfg.MaxQueues {
				target = c.cfg.MaxQueues
			}
			if c.r.Resize(target, 0) == nil {
				c.shrinkFailed = false
			}
			c.hiStreak = 0
		}
	case backlog < c.cfg.LowWater:
		c.hiStreak = 0
		c.loStreak++
		if c.loStreak >= c.cfg.Window && n > c.cfg.MinQueues && !c.shrinkFailed {
			target := n / 2
			if target < c.cfg.MinQueues {
				target = c.cfg.MinQueues
			}
			if c.r.Resize(target, 0) != nil {
				// Below the queue's own floor (e.g. its d-choice sample size);
				// retrying every window would spin on the same error.
				c.shrinkFailed = true
			}
			c.loStreak = 0
		}
	default:
		c.hiStreak, c.loStreak = 0, 0
	}
}
