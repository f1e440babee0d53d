package main

import (
	"runtime"
	"time"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
	"powerchoice/internal/xrand"
)

// pairsShape is one pairs workload: the closed loop of one worker
// alternating Insert(random key) / DeleteMin through the pqadapt worker view
// of a multiqueue prefilled to depth.
type pairsShape struct {
	depth int
	// warmPairs are run as part of set-up, so caches fill before timing.
	warmPairs int
	// refKeys sizes the reference heap to the prefill's bytes (8-byte keys
	// plus 4-byte values).
	refKeys int
	// nominal is the frozen reference rate, items/s, the correction scales to.
	nominal float64
}

var (
	// 2^21 elements, ~24 MiB of keys and values: far beyond L2, ~9 levels
	// of 4-ary heap per queue. The heap sift does most of the work.
	deepPairs = pairsShape{depth: 1 << 21, warmPairs: 1 << 19, refKeys: 3 << 20, nominal: 12e6}
	// 2^12 elements, 512 per queue, cache-resident: the draw, two lock
	// round-trips and call glue dominate.
	shallowPairs = pairsShape{depth: 1 << 12, warmPairs: 1 << 20, refKeys: 6 << 10, nominal: 45e6}
)

// rankOps is the number of removals the rank pass ranks.
const rankOps = 1 << 18

// pairsLoop is the workload's one worker and its counts.
type pairsLoop struct {
	q    pqadapt.Queue
	view sched.Queue[int32]
	rng  *xrand.Source
	// inserted counts the prefill too; empty counts DeleteMin calls that
	// found the never-empty structure empty.
	inserted, removed, empty int64
}

func newPairsLoop(seed uint64, depth int) (*pairsLoop, error) {
	q, err := newMultiQueue(seed)
	if err != nil {
		return nil, err
	}
	p := &pairsLoop{
		q:    q,
		view: q.(sched.WorkerLocal[int32]).Local(),
		rng:  xrand.NewSource(xrand.Tag(seed, "perfbench.pairs")),
	}
	for i := 0; i < depth; i++ {
		p.view.Insert(p.rng.Uint64()>>1, 0)
	}
	p.inserted = int64(depth)
	return p, nil
}

// run does n pairs through view.
func (p *pairsLoop) run(view sched.Queue[int32], n int) {
	var removed int64
	for i := 0; i < n; i++ {
		view.Insert(p.rng.Uint64()>>1, int32(i))
		if _, _, ok := view.DeleteMin(); ok {
			removed++
		}
	}
	p.inserted += int64(n)
	p.removed += removed
	p.empty += int64(n) - removed
}

// runFor does pairs through view for at least d and returns the completed
// items: inserts plus successful deletes.
func (p *pairsLoop) runFor(view sched.Queue[int32], d time.Duration) (float64, time.Duration) {
	before := p.inserted + p.removed
	start := time.Now()
	for {
		p.run(view, 1024)
		if el := time.Since(start); el >= d {
			return float64(p.inserted + p.removed - before), el
		}
	}
}

// check counts every operation, failing the pops that found the
// never-empty structure empty, and compares inserted - removed with Len.
func (p *pairsLoop) check(r *report) {
	r.check("pairs: DeleteMin found the never-empty structure empty", p.inserted+p.removed+p.empty, p.empty)
	r.check("pairs: inserted - removed == Len()", 1, b2i(int64(p.q.Len()) != p.inserted-p.removed))
}

func runPairs(cfg runConfig, shape pairsShape) (*report, error) {
	r := newReport()
	ref := newRefKernel(shape.refKeys)
	var loop *pairsLoop
	setups, err := interleave(ref, fixedWindow, reps(setupReps), func(int) (float64, time.Duration, error) {
		loop = nil
		runtime.GC()
		start := time.Now()
		l, err := newPairsLoop(cfg.seed, shape.depth)
		if err != nil {
			return 0, 0, err
		}
		l.run(l.view, shape.warmPairs)
		loop = l
		return 1, time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}
	setSetup(r, setups, shape.nominal)
	runtime.GC()

	if cfg.traced {
		return r, tracedPairs(cfg, r, shape, ref, loop)
	}
	heap := newHeapPeak()
	gc0 := readGC()
	windows, err := interleave(ref, fixedWindow, until(cfg.measure), func(int) (float64, time.Duration, error) {
		items, el := loop.runFor(loop.view, window)
		heap.sample()
		return items, el, nil
	})
	if err != nil {
		return nil, err
	}
	setRuntime(r, gc0, readGC(), totalItems(windows))
	setClosedLoop(r, windows, shape.nominal)
	r.set("heap_mib", heap.mib())
	loop.check(r)

	// The rank pass, twice: one seed must give one answer.
	var ranks [2]rankStats
	for i := range ranks {
		if ranks[i], err = pairsRank(cfg.seed, shape.depth, nil); err != nil {
			return nil, err
		}
	}
	r.check("pairs: the rank pass repeats for one seed", 1, b2i(ranks[0] != ranks[1]))
	setRank(r, ranks[0])
	r.set("stale_ratio", ranks[0].nonMin)
	r.set("inv_wait_per_job", ranks[0].waiting)
	return r, nil
}

// pairsRank runs the sequential rank pass on a fresh multiqueue, through
// its worker view or, with rec, through a tap around it.
func pairsRank(seed uint64, depth int, rec *recorder) (rankStats, error) {
	q, err := newMultiQueue(seed)
	if err != nil {
		return rankStats{}, err
	}
	if rec != nil {
		if q, err = newTap(q, rec); err != nil {
			return rankStats{}, err
		}
	}
	return sequentialRank(q.(sched.WorkerLocal[int32]).Local(), depth, rankOps)
}

// tracedPairs alternates untraced windows with windows whose calls go
// through a timing tap, then runs the budget probes and the bare heap at
// the workload's depth.
func tracedPairs(cfg runConfig, r *report, shape pairsShape, ref *refKernel, loop *pairsLoop) error {
	rec := &recorder{clk: clock{time.Now()}, timing: true, mask: 63, clockNs: clockCost(), spans: cfg.spans}
	tap, err := newTap(loop.q, rec)
	if err != nil {
		return err
	}
	// The tap's worker view wraps a second handle of the same queue, so
	// traced and untraced windows run on one structure.
	traced := tap.Local()
	gc0 := readGC()
	windows, err := interleave(ref, fixedWindow, until(cfg.measure), func(i int) (float64, time.Duration, error) {
		if i%2 == 0 {
			items, el := loop.runFor(loop.view, window)
			return items, el, nil
		}
		id := cfg.spans.reserve()
		rec.parent = id
		start := rec.clk.now()
		items, el := loop.runFor(traced, window)
		cfg.spans.add(span{ID: id, Name: "pairs.window", Start: start, End: rec.clk.now(), Request: int64(i / 2)})
		return items, el, nil
	})
	if err != nil {
		return err
	}
	untraced, tracedW := split(windows)
	setRuntime(r, gc0, readGC(), totalItems(windows))
	setClosedLoop(r, untraced, shape.nominal)
	r.set("trace.overhead", medianCorrected(untraced, shape.nominal)/medianCorrected(tracedW, shape.nominal)-1)
	rec.setCalls(r)
	rec.setHandles(r, handleOf(loop.view))
	rec.flushSpans()
	loop.check(r)

	// The traced rank pass must rank exactly as the untraced one.
	plain, err := pairsRank(cfg.seed, shape.depth, nil)
	if err != nil {
		return err
	}
	viaTap, err := pairsRank(cfg.seed, shape.depth, &recorder{clk: clock{time.Now()}, timing: true, mask: 63, clockNs: rec.clockNs})
	if err != nil {
		return err
	}
	r.check("traced: the rank pass through the tap equals the untraced one", 1, b2i(plain != viaTap))

	if err := setBudget(r, shape.depth, cfg.seed); err != nil {
		return err
	}
	setBareHeap(r, shape.depth/queues, cfg.seed)
	setSpin(r)
	return nil
}
