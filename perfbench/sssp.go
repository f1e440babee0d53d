package main

import (
	"runtime"
	"time"

	"powerchoice/internal/graph"
	"powerchoice/internal/xrand"
)

// sssp-batch8: the closed loop through the sched executor. One worker solves
// single-source shortest paths on a road-network grid with batch k = 8, so
// the executor, the adapter, the graph task and core's bulk paths do the
// work on near-monotone keys.
const (
	ssspGrid  = 700
	ssspDiag  = 0.15
	ssspBatch = 8
	// ssspRefKeys sizes the reference heap like the solve's hot data: the
	// queues hold a frontier of a few thousand keys and the graph is read
	// in a band that moves across it, so the solve runs mostly in cache.
	ssspRefKeys = 1 << 16
	// ssspNominal is the frozen reference rate, items/s.
	ssspNominal = 34e6
)

// ssspRefDur matches each reference window to the solve before it.
func ssspRefDur(last time.Duration) time.Duration {
	if last == 0 {
		return 250 * time.Millisecond
	}
	return last
}

// solved is one solve's output.
type solved struct {
	dist    []uint64
	stats   graph.SSSPStats
	elapsed time.Duration
}

// processed counts the pops the task accepted: the source and every pushed
// entry are popped once, and the stale ones are discarded.
func (s solved) processed() int64 { return 1 + s.stats.Relaxations - s.stats.WastedPops }

// solve runs one solve from node 0 on a fresh multiqueue, through a tap
// when rec is not nil.
func solve(g *graph.Graph, seed uint64, rec *recorder) (solved, error) {
	q, err := newMultiQueue(seed)
	if err != nil {
		return solved{}, err
	}
	pq := graph.ConcurrentPQ(q)
	if rec != nil {
		if pq, err = newTap(q, rec); err != nil {
			return solved{}, err
		}
	}
	start := time.Now()
	dist, st, err := graph.ParallelSSSPBatch(g, 0, pq, 1, ssspBatch)
	return solved{dist, st, time.Since(start)}, err
}

// ssspChecks are the output checks every solve of one run passes.
type ssspChecks struct {
	r      *report
	want   []uint64
	logged solved
}

// solve checks s against sequential Dijkstra and the logged solve's stale
// pops, which one seed must repeat.
func (c ssspChecks) solve(what string, s solved) {
	var bad int64
	for i, d := range s.dist {
		if d != c.want[i] {
			bad++
		}
	}
	n := int64(len(c.want))
	c.r.check("sssp: distances equal graph.Dijkstra", n, bad+n-int64(len(s.dist)))
	c.r.check("sssp: "+what+" stale pops equal the logged solve's", 1, b2i(s.stats.WastedPops != c.logged.stats.WastedPops))
}

func runSSSP(cfg runConfig) (*report, error) {
	r := newReport()
	ref := newRefKernel(ssspRefKeys)
	var g *graph.Graph
	setups, err := interleave(ref, ssspRefDur, reps(setupReps), func(int) (float64, time.Duration, error) {
		g = nil
		runtime.GC()
		start := time.Now()
		gg, err := graph.RoadNetwork(ssspGrid, ssspGrid, ssspDiag, xrand.Tag(cfg.seed, "perfbench.graph"))
		if err != nil {
			return 0, 0, err
		}
		r.set("graph.build_s", time.Since(start).Seconds())
		if _, err := solve(gg, cfg.seed, nil); err != nil {
			return 0, 0, err
		}
		g = gg
		return 1, time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}
	setSetup(r, setups, ssspNominal)

	start := time.Now()
	want, err := graph.Dijkstra(g, 0)
	if err != nil {
		return nil, err
	}
	r.set("graph.dijkstra_s", time.Since(start).Seconds())
	r.note("graph: %d nodes, %d edges; sequential Dijkstra %.4f s", g.NumNodes(), g.NumEdges(), r.metrics["graph.dijkstra_s"])

	// A logged solve ranks every removal; its counts are the ones every
	// other solve of this seed must repeat.
	logRec := &recorder{clk: clock{time.Now()}, logging: true}
	logged, err := solve(g, cfg.seed, logRec)
	if err != nil {
		return nil, err
	}
	ranks, err := replayRanks(logRec.events)
	if err != nil {
		return nil, err
	}
	logRec.events = nil
	checks := ssspChecks{r, want, logged}
	checks.solve("logged", logged)
	r.note("sssp: %d processed pops, %d stale per solve", logged.processed(), logged.stats.WastedPops)

	if cfg.traced {
		return r, tracedSSSP(cfg, r, ref, g, checks, logRec, ranks)
	}
	heap := newHeapPeak()
	gc0 := readGC()
	windows, err := interleave(ref, ssspRefDur, until(cfg.measure), func(int) (float64, time.Duration, error) {
		runtime.GC()
		s, err := solve(g, cfg.seed, nil)
		if err != nil {
			return 0, 0, err
		}
		heap.sample()
		checks.solve("timed", s)
		return float64(len(want)), s.elapsed, nil
	})
	if err != nil {
		return nil, err
	}
	setRuntime(r, gc0, readGC(), totalItems(windows))
	setClosedLoop(r, windows, ssspNominal)
	r.set("heap_mib", heap.mib())
	setRank(r, ranks)
	r.set("stale_ratio", float64(logged.stats.WastedPops)/float64(logged.processed()))
	r.set("inv_wait_per_job", ranks.waiting)
	return r, nil
}

// tracedSSSP alternates untraced solves with solves whose every queue call
// is timed, then checks that a traced solve counts and ranks exactly as the
// logged untraced one.
func tracedSSSP(cfg runConfig, r *report, ref *refKernel, g *graph.Graph, checks ssspChecks,
	logRec *recorder, ranks rankStats) error {
	rec := &recorder{clk: clock{time.Now()}, timing: true, clockNs: clockCost(), spans: cfg.spans}
	var wall time.Duration
	var pops int64
	gc0 := readGC()
	windows, err := interleave(ref, ssspRefDur, until(cfg.measure), func(i int) (float64, time.Duration, error) {
		runtime.GC()
		var s solved
		var err error
		if i%2 == 0 {
			s, err = solve(g, cfg.seed, nil)
		} else {
			id := cfg.spans.reserve()
			rec.parent, rec.request = id, int64(i/2)
			start := rec.clk.now()
			s, err = solve(g, cfg.seed, rec)
			cfg.spans.add(span{ID: id, Name: "sssp.solve", Start: start, End: rec.clk.now(), Request: int64(i / 2)})
			wall += s.elapsed
			pops += 1 + s.stats.Relaxations
		}
		if err != nil {
			return 0, 0, err
		}
		checks.solve("traced and untraced", s)
		return float64(len(s.dist)), s.elapsed, nil
	})
	if err != nil {
		return err
	}
	untraced, traced := split(windows)
	setRuntime(r, gc0, readGC(), totalItems(windows))
	setClosedLoop(r, untraced, ssspNominal)
	r.set("trace.overhead", medianCorrected(untraced, ssspNominal)/medianCorrected(traced, ssspNominal)-1)
	rec.setCalls(r)
	rec.setHandles(r)
	rec.flushSpans()
	var queueNs, timed, emptyRefills, refills, popped int64
	for _, l := range rec.locals {
		queueNs += l.queueNs
		timed += l.timed
		emptyRefills += l.emptyRefills
		refills += l.refills
		popped += l.popped
	}
	// Each timed call adds two clock reads to the solve, one of them inside
	// its measured duration.
	self := float64(wall.Nanoseconds()-queueNs) - float64(timed)*rec.clockNs
	r.set("sched.self_ns_per_item", self/float64(pops))
	r.set("sched.empty_pops_per_item", float64(emptyRefills)/float64(pops))
	r.set("sched.buffered_pops_per_item", float64(popped-refills)/float64(pops))
	r.check("traced: the tap saw every pop the executor made", 1, b2i(popped != pops))

	// One solve both timed and logged must rank as the logged one did.
	both := &recorder{clk: clock{time.Now()}, timing: true, logging: true, clockNs: rec.clockNs}
	s, err := solve(g, cfg.seed, both)
	if err != nil {
		return err
	}
	checks.solve("traced and logged", s)
	tracedRanks, err := replayRanks(both.events)
	if err != nil {
		return err
	}
	r.check("traced: ranks equal the untraced logged solve's", 1, b2i(tracedRanks != ranks))
	lockFails := func(rec *recorder) int64 {
		var n int64
		for _, l := range rec.locals {
			n += l.h.Stats().LockFails
		}
		return n
	}
	r.check("traced: lock fails equal the untraced logged solve's", 1, b2i(lockFails(both) != lockFails(logRec)))
	setSpin(r)
	return nil
}
