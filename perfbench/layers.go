package main

import (
	"fmt"
	"time"

	"powerchoice/internal/core"
	"powerchoice/internal/jobs"
	"powerchoice/internal/pqueue"
	"powerchoice/internal/xrand"
)

// Per-layer measurements made outside the workload's own loop.

// budgetIters is the pairs one budget probe runs per repetition.
const budgetIters = 1 << 19

// setBudget runs core.BudgetProbes at n = queues and the workload's prefill:
// ns per Insert+DeleteMin pair for each component, the median of three
// repetitions, and the residual the components leave of the full pair.
func setBudget(r *report, depth int, seed uint64) error {
	probes, err := core.BudgetProbes(queues, depth, xrand.Tag(seed, "perfbench.budget"))
	if err != nil {
		return err
	}
	ns := map[string]float64{}
	for _, p := range probes {
		fn := p.New()
		fn(budgetIters / 8)
		var per []float64
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			fn(budgetIters)
			per = append(per, float64(time.Since(start).Nanoseconds())/budgetIters)
		}
		ns[p.Name] = median(per)
	}
	rows := []struct{ probe, metric string }{
		{"sample", "core.sample_ns"}, {"draw", "xrand.draw_ns"}, {"scan", "core.scan_ns"},
		{"lock", "core.lock_ns"}, {"heap", "core.heap_ns"}, {"stats", "core.stats_ns"}, {"total", ""},
	}
	for _, row := range rows {
		v, ok := ns[row.probe]
		if !ok {
			return fmt.Errorf("core.BudgetProbes has no %q row", row.probe)
		}
		if row.metric != "" {
			r.set(row.metric, v)
		}
	}
	r.set("core.residual_ns", ns["total"]-ns["sample"]-ns["lock"]-ns["heap"]-ns["stats"])
	r.note("budget: total pair %.2f ns at prefill %d", ns["total"], depth)
	return nil
}

// setBareHeap times a bare pqueue.DAryHeap at one queue's depth: blocks of
// pushes, then as many pops, so the heap stays near that depth.
func setBareHeap(r *report, depth int, seed uint64) {
	const block, rounds = 64, 1 << 13
	h := pqueue.NewDAryHeap[int32]()
	rng := xrand.NewSource(xrand.Tag(seed, "perfbench.heap"))
	for i := 0; i < depth; i++ {
		h.Push(rng.Uint64()>>1, 0)
	}
	var pushNs, popNs int64
	var acc uint64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		for j := 0; j < block; j++ {
			h.Push(rng.Uint64()>>1, int32(j))
		}
		t1 := time.Now()
		for j := 0; j < block; j++ {
			it, _ := h.PopMin()
			acc += it.Key
		}
		popNs += int64(time.Since(t1))
		pushNs += int64(t1.Sub(t0))
	}
	refSink += acc
	r.set("pqueue.push_ns", float64(pushNs)/(block*rounds))
	r.set("pqueue.popmin_ns", float64(popNs)/(block*rounds))
}

// setSpin records the service spin's calibration.
func setSpin(r *report) { r.set("host.spin_ns_per_unit", jobs.SpinNsPerUnit()) }
