package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"powerchoice/internal/jobs"
	"powerchoice/internal/workload"
	"powerchoice/internal/xrand"
)

// serve-bursty: the open loop. The bursty (MMPP) preset is compiled to a
// trace and replayed by one producer to one worker through jobs.RunOpen, at
// a fixed rate well below the knee, with producer and worker sharing one Go
// P. Arrivals follow the trace's schedule whatever the server does, and each
// job is timed from the instant the trace says it was due.
const (
	serveRate = 150000 // jobs/s
	// serveSeedTag derives the trace's seed; seed and seed + 1 share it.
	serveSeedTag = "perfbench.serve"
	// serveWarmJobs are served unpaced during set-up.
	serveWarmJobs = 1 << 16
	// serveRefKeys and serveNominal: the reference for set-up time, a
	// cache-resident heap (serve keeps its queue shallow).
	serveRefKeys = 1 << 16
	serveNominal = 32e6
	// serveSpanEvery: one job in this many gets spans in the traced run.
	serveSpanEvery = 64
)

// served is one replay: the server's result and the view's instants.
type served struct {
	res jobs.OpenResult
	rec *recorder
}

// replay serves tr through a tap that records each job's injection,
// dequeue and completion instants.
func replay(tr *workload.Trace, seed uint64, rec *recorder) (served, error) {
	n := tr.Jobs()
	rec.inject, rec.dequeue, rec.complete = make([]int64, n), make([]int64, n), make([]int64, n)
	q, err := newMultiQueue(seed)
	if err != nil {
		return served{}, err
	}
	tap, err := newTap(q, rec)
	if err != nil {
		return served{}, err
	}
	rec.clk = clock{time.Now()}
	res, err := jobs.RunOpen(jobs.OpenSpec{Workload: tr, Producers: 1}, tap, 1, 1)
	// Nothing calls the view after the worker's last job: it completed
	// when RunOpen returned.
	end := rec.clk.now()
	for _, l := range rec.locals {
		if l.busy {
			rec.complete[l.last] = end
			l.busy = false
		}
	}
	return served{res, rec}, err
}

func runServe(cfg runConfig) (*report, error) {
	// Producer and worker share one P: at GOMAXPROCS=2 the tail measures
	// the Go and OS schedulers, not the queue (README.md).
	runtime.GOMAXPROCS(1)
	r := newReport()
	spec, err := workload.Preset("bursty")
	if err != nil {
		return nil, err
	}
	n := int(serveRate * cfg.measure.Seconds())
	if cfg.traced {
		n /= 2 // an untraced and a traced replay share the time
	}
	ref := newRefKernel(serveRefKeys)
	var tr *workload.Trace
	var hashes []string
	var generated float64 // the generator's realized rate, jobs/s
	setups, err := interleave(ref, fixedWindow, reps(setupReps), func(int) (float64, time.Duration, error) {
		tr = nil
		runtime.GC()
		start := time.Now()
		t, rate, err := serveTrace(spec, xrand.Tag(cfg.seed, serveSeedTag), n)
		if err != nil {
			return 0, 0, err
		}
		r.set("workload.generate_s", time.Since(start).Seconds())
		if err := warmUp(t, cfg.seed); err != nil {
			return 0, 0, err
		}
		el := time.Since(start)
		h, err := t.Hash()
		if err != nil {
			return 0, 0, err
		}
		hashes = append(hashes, h)
		tr, generated = t, rate
		return 1, el, nil
	})
	if err != nil {
		return nil, err
	}
	setSetup(r, setups, serveNominal)
	refs := make([]float64, len(setups))
	for i, s := range setups {
		refs[i] = s.ref
	}
	r.set("host.ref_rate", median(refs)/1e6)

	// The trace: one seed gives one hash, another seed another, and the
	// generator's realized rate is the requested one.
	other, _, err := serveTrace(spec, xrand.Tag(cfg.seed+1, serveSeedTag), n)
	if err != nil {
		return nil, err
	}
	otherHash, err := other.Hash()
	if err != nil {
		return nil, err
	}
	var differ int64
	for _, h := range hashes {
		differ += b2i(h != hashes[0])
	}
	r.check("serve: one seed generates one trace hash", int64(len(hashes)), differ)
	r.check("serve: another seed generates another trace hash", 1, b2i(otherHash == hashes[0]))
	tol := rateTolerance(spec, float64(n)/serveRate)
	r.check(fmt.Sprintf("serve: generated rate %.0f/s within %.1f%% of %d/s", generated, 100*tol, serveRate),
		1, b2i(math.Abs(generated/serveRate-1) > tol))
	r.note("serve: %d jobs, trace %s, generated at %.0f jobs/s", n, hashes[0], generated)
	runtime.GC()

	heap := newHeapPeak()
	gc0 := readGC()
	if cfg.traced {
		var s served
		if s, err = replay(tr, cfg.seed, &recorder{}); err == nil {
			_, err = setServe(r, tr, s)
		}
	} else {
		err = replaySegments(r, ref, tr, cfg.seed, heap)
	}
	if err != nil {
		return nil, err
	}
	heap.sample()
	setRuntime(r, gc0, readGC(), float64(n))
	r.set("heap_mib", heap.mib())
	h, err := tr.Hash()
	if err != nil {
		return nil, err
	}
	r.check("serve: the replay kept the generated trace hash", 1, b2i(h != hashes[0]))
	r.set("host.view_ns_per_job", viewCost())
	r.note("serve: the timing view costs %.1f ns per job", r.metrics["host.view_ns_per_job"])
	if !cfg.traced {
		return r, nil
	}

	untracedP50 := r.metrics["sojourn_p50_us"]
	rec := &recorder{timing: true, mask: 63, clockNs: clockCost(), spans: cfg.spans}
	t, err := replay(tr, cfg.seed, rec)
	if err != nil {
		return nil, err
	}
	offset, err := setServe(r, tr, t)
	if err != nil {
		return nil, err
	}
	r.set("trace.overhead", r.metrics["sojourn_p50_us"]/untracedP50-1)
	rec.setCalls(r)
	rec.setHandles(r)
	rec.flushSpans()
	for id := 0; id < n; id += serveSpanEvery {
		due := tr.ArrivalNs[id] + offset
		job := cfg.spans.reserve()
		req := int64(id)
		cfg.spans.add(span{ID: job, Name: "job", Start: due, End: rec.complete[id], Request: req})
		cfg.spans.add(span{Parent: job, Name: "sched.lateness", Start: due, End: rec.inject[id], Request: req})
		cfg.spans.add(span{Parent: job, Name: "jobs.wait", Start: rec.inject[id], End: rec.dequeue[id], Request: req})
		cfg.spans.add(span{Parent: job, Name: "jobs.service", Start: rec.dequeue[id], End: rec.complete[id], Request: req})
	}
	setSpin(r)
	return r, nil
}

// serveSegments splits the untraced replay. Each segment is replayed on a
// fresh queue between reference windows, its sojourn percentiles are scaled
// to the nominal reference rate as the closed loops' times are, and each
// serve metric is the median over segments, so neither host drift nor one
// stalled segment moves it.
const serveSegments = 5

// replaySegments replays tr in serveSegments consecutive segments and
// records the median of each serve metric over them.
func replaySegments(r *report, ref *refKernel, tr *workload.Trace, seed uint64, heap *heapPeak) error {
	m := tr.Jobs() / serveSegments
	var parts []*report
	samples, err := interleave(ref, fixedWindow, reps(serveSegments), func(j int) (float64, time.Duration, error) {
		runtime.GC()
		seg := segment(tr, j*m, (j+1)*m)
		s, err := replay(seg, seed, &recorder{})
		if err != nil {
			return 0, 0, err
		}
		heap.sample()
		part := newReport()
		if _, err := setServe(part, seg, s); err != nil {
			return 0, 0, err
		}
		r.attempted += part.attempted
		r.failed += part.failed
		r.notes = append(r.notes, part.notes...)
		parts = append(parts, part)
		return float64(m), s.res.Elapsed, nil
	})
	if err != nil {
		return err
	}
	refs := make([]float64, len(samples))
	for j, s := range samples {
		refs[j] = s.ref
	}
	for name := range parts[0].metrics {
		v := make([]float64, len(parts))
		raw := make([]float64, len(parts))
		var scaled bool
		for j, p := range parts {
			raw[j] = p.metrics[name]
			v[j], scaled = correct(name, raw[j], samples[j].ref/serveNominal)
		}
		r.set(name, median(v))
		if scaled {
			r.note("segments %d: %s raw %.4f, reference %.4f Mitems/s, corrected %.4f",
				len(parts), name, median(raw), median(refs)/1e6, median(v))
		}
	}
	return nil
}

// correct scales a serve metric by f, the reference rate over the nominal
// one: the times, and the waiting set, which at this low utilization grows
// in proportion to the service time. A rank counts the removed job itself,
// so only rank - 1 scales. It reports whether the metric was scaled.
func correct(name string, v, f float64) (float64, bool) {
	switch name {
	case "sojourn_p50_us", "sojourn_p90_us", "inv_wait_per_job", "stale_ratio":
		return v * f, true
	case "rank_mean", "rank_p99":
		return 1 + (v-1)*f, true
	}
	return v, false
}

// segment returns jobs [lo, hi) of tr as a trace of their own whose
// schedule starts at the first of them.
func segment(tr *workload.Trace, lo, hi int) *workload.Trace {
	at := make([]int64, hi-lo)
	for i := range at {
		at[i] = tr.ArrivalNs[lo+i] - tr.ArrivalNs[lo]
	}
	return &workload.Trace{
		Spec: tr.Spec, Seed: tr.Seed, Rate: tr.Rate,
		ArrivalNs: at, Class: tr.Class[lo:hi], Service: tr.Service[lo:hi],
	}
}

// serveTrace generates the bursty trace and rescales its schedule so it
// offers exactly serveRate over its length: the MMPP's realized rate swings
// by a few percent from seed to seed (see rateTolerance), and sojourn
// follows the load. It also returns the generator's own realized rate.
func serveTrace(spec *workload.Spec, seed uint64, n int) (*workload.Trace, float64, error) {
	t, err := workload.Generate(spec, seed, n, serveRate)
	if err != nil {
		return nil, 0, err
	}
	rate := scheduleRate(t)
	t, err = t.ScaleRate(serveRate / rate)
	return t, rate, err
}

// scheduleRate is a trace's realized arrival rate, jobs/s.
func scheduleRate(t *workload.Trace) float64 {
	return float64(t.Jobs()) / (float64(t.ArrivalNs[t.Jobs()-1]) / 1e9)
}

// warmUp serves the trace's first serveWarmJobs jobs through a tapped
// queue without pacing: a fixed amount of work through the paths the
// replay takes.
func warmUp(tr *workload.Trace, seed uint64) error {
	q, err := newMultiQueue(seed)
	if err != nil {
		return err
	}
	rec := &recorder{clk: clock{time.Now()}}
	rec.inject, rec.dequeue, rec.complete = make([]int64, serveWarmJobs), make([]int64, serveWarmJobs), make([]int64, serveWarmJobs)
	tap, err := newTap(q, rec)
	if err != nil {
		return err
	}
	view := tap.Local()
	for i := 0; i < serveWarmJobs; i++ {
		view.Insert(tr.Key(i), int32(i))
	}
	for i := 0; i < serveWarmJobs; i++ {
		if _, _, ok := view.DeleteMin(); !ok {
			return fmt.Errorf("warm-up: the queue was empty after %d of %d jobs", i, serveWarmJobs)
		}
	}
	return nil
}

// rateTolerance is five standard deviations of an MMPP trace's realized
// rate over a trace of length seconds, relative to the requested rate. With equal mean
// dwell τ in both phases and a burst phase b times the calm one, the time
// share f spent bursting has variance τ/(4·length), and the realized rate is
// λ·(1 + 2(b-1)/(b+1)·(f - 1/2)).
func rateTolerance(spec *workload.Spec, length float64) float64 {
	b, tau := spec.Arrival.Burst, spec.Arrival.PhaseS
	return 5 * 2 * (b - 1) / (b + 1) * math.Sqrt(tau/(4*length))
}

// setServe checks one replay and records its metrics. Due instants are the
// trace's schedule from an origin that makes the least-late injection on
// time; setServe returns that origin in the recorder's clock.
func setServe(r *report, tr *workload.Trace, s served) (int64, error) {
	rec, res := s.rec, s.res
	n := tr.Jobs()
	var order []int32
	for _, l := range rec.locals {
		order = append(order, l.order...)
	}
	times := make([]int32, n)
	for _, id := range order {
		times[id]++
	}
	var bad int64
	for _, c := range times {
		bad += b2i(c != 1)
	}
	r.check("serve: every job dequeued exactly once", int64(n), bad)
	r.check("serve: Processed == Injected == jobs in the trace", 2,
		b2i(res.Stats.Processed != int64(n))+b2i(res.Injected != int64(n)))

	offset := int64(math.MaxInt64)
	for i, due := range tr.ArrivalNs {
		offset = min(offset, rec.inject[i]-due)
	}
	sojourn := make([]float64, n)
	lateness := make([]float64, n)
	wait := make([]float64, n)
	var serviceNs, spinUnits float64
	for i := 0; i < n; i++ {
		due := tr.ArrivalNs[i] + offset
		sojourn[i] = float64(rec.complete[i]-due) / 1e3
		lateness[i] = float64(rec.inject[i]-due) / 1e3
		wait[i] = float64(rec.dequeue[i]-rec.inject[i]) / 1e3
		serviceNs += float64(rec.complete[i] - rec.dequeue[i])
		spinUnits += float64(tr.Service[i])
	}
	slices.Sort(sojourn)
	slices.Sort(lateness)
	slices.Sort(wait)
	r.set("sojourn_p50_us", percentile(sojourn, 50))
	r.set("sojourn_p90_us", percentile(sojourn, 90))
	// The highest percentile with ten samples beyond it, unbounded.
	tail := n - 11
	r.set("jobs.sojourn_tail_us", sojourn[tail])
	r.set("jobs.sojourn_tail_pct", 100*float64(tail)/float64(n-1))
	r.set("jobs.sojourn_samples", float64(n))
	r.note("sojourn from due: p50 %.3f us, p90 %.3f us, p%.4f %.3f us over %d jobs",
		percentile(sojourn, 50), percentile(sojourn, 90), r.metrics["jobs.sojourn_tail_pct"], sojourn[tail], n)
	r.set("sched.lateness_p50_us", percentile(lateness, 50))
	r.set("sched.lateness_p99_us", percentile(lateness, 99))
	r.set("sched.qlen_mean", res.QLenMean)
	r.set("jobs.wait_p50_us", percentile(wait, 50))
	r.set("jobs.wait_p99_us", percentile(wait, 99))
	r.set("jobs.service_us", serviceNs/float64(n)/1e3)
	r.set("jobs.achieved_rate_ratio", res.AchievedRate/scheduleRate(tr))
	// Dequeue -> completion beyond the service spin: the task's bookkeeping
	// and the executor's loop.
	r.set("sched.self_ns_per_item", (serviceNs-spinUnits*res.SpinNsPerUnit)/float64(n))
	r.set("sched.empty_pops_per_item", float64(res.Stats.EmptyPops)/float64(n))
	r.set("sched.buffered_pops_per_item", float64(res.Stats.BufferedPops)/float64(n))
	r.set("throughput", res.AchievedRate/1e6)
	r.set("host.raw_throughput", res.AchievedRate/1e6)
	r.set("inv_wait_per_job", float64(res.InvWaiting)/float64(n))

	// Ranks: the waiting set at each dequeue, replayed from the instants in
	// time order (injections are in job order).
	events := make([]rankEvent, 0, 2*n)
	next := 0
	for _, id := range order {
		for next < n && rec.inject[next] <= rec.dequeue[id] {
			events = append(events, rankEvent{tr.Key(next), true})
			next++
		}
		events = append(events, rankEvent{tr.Key(int(id)), false})
	}
	ranks, err := replayRanks(events)
	if err != nil {
		return 0, err
	}
	setRank(r, ranks)
	r.set("stale_ratio", ranks.nonMin)
	return offset, nil
}

// viewCost times what the serve view adds per job on its own: three clock
// reads, three stores and one append.
func viewCost() float64 {
	const n = 1 << 18
	c := clock{time.Now()}
	a, b, d := make([]int64, n), make([]int64, n), make([]int64, n)
	order := make([]int32, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		a[i] = c.now()
		b[i] = c.now()
		order = append(order, int32(i))
		d[i] = c.now()
	}
	el := time.Since(start)
	refSink += uint64(a[n-1]+b[n-1]+d[n-1]) + uint64(len(order))
	return float64(el.Nanoseconds()) / n
}
