package sched

// This file is the open-system half of the executor: producers inject work
// at a configured rate while workers drain. The closed-system entry points
// (Run/RunConfig) measure how fast a prefilled queue drains; RunOpen
// measures how a relaxed scheduler behaves under *sustained load* — the
// real-world-constraints framing of Scully & Harchol-Balter (PAPERS.md),
// where the interesting metric is sojourn time at a target utilization, not
// drain wall time.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerchoice/internal/xrand"
)

// openSeedTag domain-separates producer interarrival streams from every
// other stream family derived from the same root seed (notably the queue
// under test's internal per-handle streams — see xrand.Tag).
const openSeedTag = "sched.open"

// ArrivalProcess yields one producer's successive interarrival gaps. The
// executor is agnostic to the process's law: the default is the classic
// per-producer Poisson split (see OpenConfig.Rate), and callers supply
// bursty MMPP, diurnal, or trace-replay schedules through
// OpenConfig.Arrivals (internal/workload implements those; any type with a
// `Next() time.Duration` method satisfies the interface structurally).
type ArrivalProcess interface {
	// Next returns the gap between the previous arrival and the next one.
	Next() time.Duration
}

// OpenConfig bundles RunOpen's parameters.
type OpenConfig struct {
	// Workers is the consuming goroutine count (minimum 1).
	Workers int
	// Batch is the workers' bulk-operation size k, exactly as in
	// Config.Batch. Producers always insert one element at a time — arrivals
	// are paced individually, so batching them would distort the process.
	Batch int
	// Producers is the number of injecting goroutines (minimum 1). The
	// superposition of their independent Poisson streams is a Poisson
	// process of the full configured rate.
	Producers int
	// Rate is the total target arrival rate in items per second across all
	// producers. Interarrival times are exponential (Poisson arrivals),
	// drawn from deterministic per-producer streams. Rate <= 0 injects with
	// no pacing at all — a stress mode, not an open-system measurement.
	// Ignored when Arrivals is set.
	Rate float64
	// Arrivals, when non-nil, replaces Poisson pacing: it is called once
	// per producer and the returned process yields that producer's
	// interarrival gaps. Deterministic workloads (internal/workload traces)
	// plug in here; they almost always want Strided identities too.
	Arrivals func(producer int) ArrivalProcess
	// Strided assigns arrival identities deterministically instead of
	// through the racy dense counter: producer p injects global arrivals
	// p, p+Producers, p+2·Producers, … and gen's seq is that global index —
	// the assignment trace replay needs to be reproducible. When false, seq
	// is the dense first-come counter (exactly the values 0..Injected-1
	// occur). Requires Arrivals when Producers > 1: each producer's process
	// must pace its own stride of the schedule.
	Strided bool
	// Jobs is the total number of items to inject, split evenly across
	// producers; the run terminates when all injected items are served.
	// Jobs <= 0 injects nothing and returns immediately.
	Jobs int64
	// Deadline, when positive, stops injection (not service) once that much
	// time has elapsed since the run started: the run then drains what was
	// injected and returns with Injected < Jobs. Termination is therefore
	// by total-jobs-served or by deadline, never by the queue looking empty.
	Deadline time.Duration
	// SampleEvery, when positive, samples the pending count (injected but
	// not yet served — queued plus in service) on that period into
	// OpenStats.QLen, the queue-length timeseries.
	SampleEvery time.Duration
	// Elastic arms the sampler-driven resize controller (see ElasticConfig).
	// Effective only when the queue implements Resizable and SampleEvery > 0:
	// the controller's clock is the queue-length sampler.
	Elastic ElasticConfig
	// Seed fixes the interarrival randomness.
	Seed uint64
}

// OpenStats reports an open-system run: the executor's work counters plus
// the injection-side accounting.
type OpenStats struct {
	Stats
	// Injected counts items actually injected — equal to OpenConfig.Jobs
	// unless the deadline cut injection short. Exactness invariant: at
	// return, Processed + Stale == Injected + Pushed (no in-flight or
	// batch-buffered item is lost at shutdown).
	Injected int64
	// QLen holds the pending-count samples (empty unless SampleEvery > 0).
	// They are exact: RunOpen's workers hold no pending credits (see the
	// package doc), so each sample is the count of items injected and not
	// yet served at that instant.
	QLen []int64
	// Elastic-controller accounting, populated only when the controller was
	// armed (Elastic.Enable on a Resizable queue with SampleEvery > 0):
	// Resizes counts reconfigurations during this run, Epochs is the queue's
	// final topology version, and FinalQueues its final queue count —
	// FinalQueues is always non-zero when the controller was armed, so
	// harnesses can distinguish "armed but stable" from "not elastic".
	Resizes     int64
	Epochs      uint64
	FinalQueues int
}

// RunOpen runs an open system: cfg.Producers goroutines inject the items
// gen returns — paced by cfg.Arrivals processes, or by the default Poisson
// split at rate cfg.Rate — while cfg.Workers goroutines drain the queue
// through task. gen(p, seq) is called at injection time (so the caller can
// timestamp arrivals); seq is a 0-based global injection sequence — unique
// across producers — so callers can index pre-generated workloads directly
// without knowing how the quota is split among producers. By default seq is
// dense first-come (exactly the values 0..Injected-1 occur); with
// cfg.Strided it is the deterministic stride p + i·Producers instead. p
// identifies the producer whose pacing stream produced the arrival.
//
// Unlike the closed-system runners, a failed pop here usually means the
// system is momentarily empty because the next arrival has not happened
// yet, so workers never treat it as termination; they exit only when the
// producers are done AND the pending counter is zero. The counter is
// incremented before each insert and decremented only after the popped item
// is fully processed, so the drain-to-zero epilogue is exact even when
// items sit in worker-local batch buffers: pending == 0 implies every
// buffer is empty and every injected item was served. Workers here run
// with a credit cap of 0 (see the package doc): every push and every
// finished item updates pending at once, so the pending count the sampler
// and the elastic controller read is exact at any batch size.
func RunOpen[V any](q Queue[V], cfg OpenConfig, gen func(producer, seq int) Item[V], task Task[V]) OpenStats {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	producers := cfg.Producers
	if producers < 1 {
		producers = 1
	}
	batch := cfg.Batch
	if batch < 1 {
		batch = 1
	}
	totalJobs := cfg.Jobs
	if totalJobs < 0 {
		totalJobs = 0
	}

	var pending atomic.Int64
	var producersDone atomic.Bool
	var injected atomic.Int64
	var tot workerTotals

	start := time.Now()
	sh := xrand.NewSharded(xrand.Tag(cfg.Seed, openSeedTag))

	// Producers. Each runs its own Poisson stream of rate Rate/producers
	// (their superposition is Poisson at the full rate): interarrival gaps
	// are summed into a virtual schedule so pacing error does not
	// accumulate (a slow insert borrows from the next gap instead of
	// shifting the whole schedule). The even quota split only bounds each
	// producer's share; item identity comes from the global injection
	// sequence, not from the split.
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		quota := totalJobs / int64(producers)
		if int64(p) < totalJobs%int64(producers) {
			quota++
		}
		prodWG.Add(1)
		go func(p int, quota int64) {
			defer prodWG.Done()
			view := q
			if wl, ok := q.(WorkerLocal[V]); ok {
				view = wl.Local()
			}
			// A view with local insert buffering (k-LSM) must publish its
			// tail when this producer exits, or those items stay invisible
			// and the drain epilogue deadlocks. Runs before prodWG.Done, so
			// producersDone can only be observed after every flush.
			if f, ok := view.(Flusher); ok {
				defer f.Flush()
			}
			arrivals := cfg.newArrival(p, producers, sh)
			var schedule time.Duration
			for i := int64(0); i < quota; i++ {
				if arrivals != nil {
					schedule += arrivals.Next()
					// An arrival scheduled past the deadline will never be
					// injected — exit without sleeping toward it, so the
					// injection window cannot overshoot the deadline by an
					// interarrival gap (unbounded at low rates).
					if cfg.Deadline > 0 && schedule > cfg.Deadline {
						return
					}
					sleepUntil(start, schedule)
				}
				if cfg.Deadline > 0 && time.Since(start) > cfg.Deadline {
					return
				}
				var seq int64
				if cfg.Strided {
					seq = int64(p) + i*int64(producers)
					injected.Add(1)
				} else {
					seq = injected.Add(1) - 1
				}
				it := gen(p, int(seq))
				// Order matters: the item must be pending before it is
				// visible to any worker, or a fast pop could decrement
				// pending below zero and fake termination.
				pending.Add(1)
				view.Insert(it.Key, it.Value)
			}
		}(p, quota)
	}

	// Queue-length sampler, doubling as the elastic controller's clock: each
	// sample is also fed to the controller when one is armed (the queue
	// implements Resizable and cfg.Elastic asked for it).
	var ctrl *elasticController
	if cfg.Elastic.Enable && cfg.SampleEvery > 0 {
		if r, ok := q.(Resizable); ok {
			ctrl = newElasticController(r, cfg.Elastic)
		}
	}
	var qlen []int64
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	if cfg.SampleEvery > 0 {
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			tick := time.NewTicker(cfg.SampleEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					p := pending.Load()
					qlen = append(qlen, p)
					if ctrl != nil {
						ctrl.observe(p)
					}
				case <-samplerStop:
					return
				}
			}
		}()
	}

	// Workers: the shared workerLoop with open-system termination and idle
	// behavior. Termination: the producersDone load happens before the
	// pending load — done is set only after every producer's final
	// pending.Add(1), so observing done && pending==0 proves every injected
	// item has been fully served. Idle: yield the processor to the
	// producers instead of climbing a backoff ladder — arrivals are paced
	// in real time, so burning the core would starve the very goroutines
	// that end the wait.
	var workWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workWG.Add(1)
		go func() {
			defer workWG.Done()
			workerLoop(q, batch, 0, task, &pending, &tot,
				func() bool { return producersDone.Load() && pending.Load() == 0 },
				runtime.Gosched, func() {})
		}()
	}

	prodWG.Wait()
	producersDone.Store(true)
	workWG.Wait()
	close(samplerStop)
	samplerWG.Wait()

	st := OpenStats{
		Stats:    tot.stats(),
		Injected: injected.Load(),
		QLen:     qlen,
	}
	if ctrl != nil {
		st.Resizes = ctrl.r.Resizes() - ctrl.baseResizes
		st.Epochs = ctrl.r.Epoch()
		st.FinalQueues = ctrl.r.NumQueues()
	}
	return st
}

// newArrival constructs producer p's arrival process: the configured
// override, or the classic Poisson split — exponential gaps of mean
// producers/Rate drawn from the producer's tagged stream. The Poisson path
// preserves the exact pre-ArrivalProcess draw order (same stream, same
// arithmetic, one ExpFloat64 per arrival), pinned by
// TestPoissonArrivalDrawOrderPinned: (seed, rate, producers) triples keep
// producing bit-identical arrival schedules across the refactor, so serve
// measurements stay comparable. A nil return means unpaced injection.
func (cfg *OpenConfig) newArrival(p, producers int, sh *xrand.Sharded) ArrivalProcess {
	if cfg.Arrivals != nil {
		return cfg.Arrivals(p)
	}
	if cfg.Rate <= 0 {
		return nil
	}
	return &poissonProcess{
		rng:    sh.Source(p),
		meanNs: float64(producers) / cfg.Rate * float64(time.Second),
	}
}

// poissonProcess is the default ArrivalProcess: exponential interarrivals of
// mean meanNs, one draw per arrival.
type poissonProcess struct {
	rng    *xrand.Source
	meanNs float64
}

func (pp *poissonProcess) Next() time.Duration {
	return time.Duration(pp.meanNs * pp.rng.ExpFloat64())
}

// sleepUntil pauses until target time has elapsed since start. Long waits
// sleep (freeing the core for workers); the final stretch is handed to the
// scheduler in yields, because time.Sleep's wake-up granularity (tens of
// microseconds) would otherwise floor the achievable arrival rate.
func sleepUntil(start time.Time, target time.Duration) {
	const spinWindow = 100 * time.Microsecond
	for {
		remaining := target - time.Since(start)
		if remaining <= 0 {
			return
		}
		if remaining > spinWindow {
			time.Sleep(remaining - spinWindow)
			continue
		}
		runtime.Gosched()
	}
}
