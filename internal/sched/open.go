package sched

// This file is the open-system half of the executor: producers inject work
// on a fixed schedule while workers drain. The closed-system entry point
// (RunConfig) measures how fast a prefilled queue drains; RunOpen measures
// how a relaxed scheduler behaves under *sustained load* — the
// real-world-constraints framing of Scully & Harchol-Balter (PAPERS.md),
// where the interesting metric is sojourn time at a target utilization, not
// drain wall time. The schedule is the whole arrival model: whatever law
// produced it (internal/workload compiles Poisson, bursty, on/off and
// diurnal traces), RunOpen only paces its instants.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// OpenConfig bundles RunOpen's parameters.
type OpenConfig struct {
	// Workers is the consuming goroutine count (minimum 1).
	Workers int
	// Batch is the workers' bulk-operation size k, exactly as in
	// Config.Batch. Producers always insert one element at a time — arrivals
	// are paced individually, so batching them would distort the process.
	Batch int
	// Producers is the number of injecting goroutines (minimum 1). Producer
	// p injects arrivals p, p+Producers, p+2·Producers, … of Schedule.
	Producers int
	// Schedule is the non-decreasing due instant of every arrival, in
	// nanoseconds since the run starts; its length is the number of
	// arrivals, and arrival i is injected no earlier than Schedule[i]. A
	// schedule of zeros injects with no pacing at all — a stress mode, not
	// an open-system measurement. RunOpen only reads it, so a trace's
	// ArrivalNs can be passed without a copy.
	Schedule []int64
	// Deadline, when positive, stops injection (not service) once that much
	// time has elapsed since the run started: the run then drains what was
	// injected and returns with Injected < len(Schedule). Termination is
	// therefore by every arrival served or by deadline, never by the queue
	// looking empty.
	Deadline time.Duration
}

// OpenStats reports an open-system run: the executor's work counters plus
// the injection-side accounting.
type OpenStats struct {
	Stats
	// Injected counts items actually injected — len(OpenConfig.Schedule)
	// unless the deadline cut injection short. Exactness invariant: at
	// return, Processed + Stale == Injected + Pushed (no in-flight or
	// batch-buffered item is lost at shutdown).
	Injected int64
}

// RunOpen runs an open system: cfg.Producers goroutines inject the items
// gen returns, each at its cfg.Schedule instant, while cfg.Workers
// goroutines drain the queue through task. gen(seq) is called at injection
// time (so the caller can timestamp arrivals) with the arrival's index in
// the schedule, so callers index pre-generated workloads directly; every
// index is injected exactly once unless the deadline cuts injection short.
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
// finished item updates pending at once, so the pending count the
// producers' pacing (waitStep) reads is exact at any batch size.
//
// The run starts cfg.Producers producers and cfg.Workers workers, and no
// other goroutine.
func RunOpen[V any](q Queue[V], cfg OpenConfig, gen func(seq int) Item[V], task Task[V]) OpenStats {
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

	var pending atomic.Int64
	var producersDone atomic.Bool
	var injected atomic.Int64
	var tot workerTotals

	start := time.Now()

	// Producers. Each paces its stride of the schedule against the run's
	// start, not against its previous arrival, so pacing error does not
	// accumulate (a slow insert borrows from the next gap instead of
	// shifting the whole schedule).
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			view := resolveView(q)
			// A view with local insert buffering (k-LSM) must publish its
			// tail when this producer exits, or those items stay invisible
			// and the drain epilogue deadlocks. Runs before prodWG.Done, so
			// producersDone can only be observed after every flush.
			if f, ok := view.(Flusher); ok {
				defer f.Flush()
			}
			// The producer's injections, added to Injected once at exit so
			// no arrival pays a shared atomic between its due instant and
			// its insert.
			var n int64
			for seq := p; seq < len(cfg.Schedule); seq += producers {
				due := time.Duration(cfg.Schedule[seq])
				// An arrival due past the deadline will never be injected —
				// exit without sleeping toward it, so the injection window
				// cannot overshoot the deadline by an interarrival gap
				// (unbounded at low rates).
				if cfg.Deadline > 0 && due > cfg.Deadline {
					break
				}
				if now := sleepUntil(start, due, &pending); cfg.Deadline > 0 && now > cfg.Deadline {
					break
				}
				it := gen(seq)
				// Order matters: the item must be pending before it is
				// visible to any worker, or a fast pop could decrement
				// pending below zero and fake termination.
				pending.Add(1)
				view.Insert(it.Key, it.Value)
				n++
			}
			injected.Add(n)
		}(p)
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

	return OpenStats{
		Stats:    tot.stats(),
		Injected: injected.Load(),
	}
}

// The producer's wait for an arrival's due instant has three stretches.
// Beyond yieldWindow it sleeps, freeing the P for workers until the final
// stretch. Within yieldWindow it yields, because time.Sleep's wake-up
// granularity (tens of microseconds) would otherwise floor the achievable
// arrival rate, and a yield lets a worker with a job queued or in service
// run. Within spinWindow, and only while nothing is pending, it keeps
// reading the clock instead: no worker has anything to do, so a yield would
// only hand the P to an idle worker whose failed pop hands it back, and on
// one P that ping-pong, about 150 ns a round trip, is what made arrivals
// late. spinWindow is about four such round trips, long enough to catch
// the due instant and short enough that one producer keeps other
// producers and the collector off the P for at most 2 µs per arrival.
const (
	yieldWindow = 100 * time.Microsecond
	spinWindow  = 2 * time.Microsecond
)

// wait is one step of a producer's wait for its next due instant.
type wait uint8

const (
	waitSleep wait = iota // sleep until yieldWindow before the instant
	waitYield             // hand the P to the scheduler once
	waitSpin              // read the clock again without yielding
)

// waitStep picks the next step of the wait for an instant remaining away
// (> 0) while pending jobs are injected and not yet served. RunOpen's
// workers hold no credits, so pending is exact: 0 means no worker has a job
// to pop or serve.
func waitStep(remaining time.Duration, pending int64) wait {
	switch {
	case remaining > yieldWindow:
		return waitSleep
	case remaining > spinWindow || pending > 0:
		return waitYield
	}
	return waitSpin
}

// sleepUntil pauses until target time has elapsed since start, stepping by
// waitStep, and returns the elapsed time it last read (≥ target).
func sleepUntil(start time.Time, target time.Duration, pending *atomic.Int64) time.Duration {
	for {
		elapsed := time.Since(start)
		remaining := target - elapsed
		if remaining <= 0 {
			return elapsed
		}
		switch waitStep(remaining, pending.Load()) {
		case waitSleep:
			time.Sleep(remaining - yieldWindow)
		case waitYield:
			runtime.Gosched()
		}
	}
}
