package main

import (
	"fmt"
	"sync"
	"time"

	"powerchoice/internal/core"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
)

// Pass-through views. The benchmark observes the program from outside:
// tapQueue wraps a multiqueue adapter and hands each goroutine a tapLocal
// around the adapter's own worker view. Both forward every call and keep
// every optional interface of the view they wrap (checked by
// sameInterfaces), so the executor takes the same paths through them; a
// view without sched.Batched, for example, would send batched runs through
// sched's per-element fallback and measure a different path.
//
// What a view records is set by its recorder: serve's per-job instants, a
// log of every insert and removal for the rank replay, and in traced runs a
// sample of timed calls.

// clock reads monotonic nanoseconds since its base.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// clockCost is the mean cost of one clock read in ns: what a timed region
// adds to the call inside it.
func clockCost() float64 {
	c := clock{time.Now()}
	const n = 1 << 20
	var acc int64
	start := time.Now()
	for i := 0; i < n; i++ {
		acc += c.now()
	}
	refSink += uint64(acc)
	return float64(time.Since(start).Nanoseconds()) / n
}

// Timed operations and the two paths a timed call takes.
const (
	opInsert = iota
	opDeleteMin
	opInsertBatch
	opDeleteMinBatch
	numOps
)

var opNames = [numOps]string{"insert", "deletemin", "insertbatch", "deleteminbatch"}

const (
	viaAdapter = iota // through the pqadapt worker view
	viaCore           // straight into core.Handle
)

var pathNames = [2]string{"pqadapt", "core"}

// callStat accumulates timed calls.
type callStat struct {
	n, ns int64
}

// recorder is what the views record, shared by one run's views.
type recorder struct {
	clk clock
	// inject, dequeue and complete are serve's per-job instants, indexed by
	// job id (nil outside serve).
	inject, dequeue, complete []int64
	// logging appends every insert and removal to events, in order. Only for
	// runs whose views are used by one goroutine at a time.
	logging bool
	events  []rankEvent
	// timing times every (mask+1)-th call, alternately through the pqadapt
	// view and straight into core.Handle.
	timing  bool
	mask    int64
	clockNs float64
	// spans, parent and request label the spans of timed calls: parent is
	// the enclosing span, request the pair, solve or job the call serves.
	spans   *spanLog
	parent  int64
	request int64

	mu     sync.Mutex
	locals []*tapLocal
}

// tapQueue is the pass-through view of a multiqueue adapter.
type tapQueue struct {
	pqadapt.Queue
	rec *recorder
}

// newTap wraps q.
func newTap(q pqadapt.Queue, rec *recorder) (*tapQueue, error) {
	t := &tapQueue{Queue: q, rec: rec}
	if err := sameInterfaces(q, t); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tapQueue) Insert(key uint64, v int32) {
	if t.rec.logging {
		t.rec.events = append(t.rec.events, rankEvent{key, true})
	}
	t.Queue.Insert(key, v)
}

// Local wraps the adapter's per-goroutine view (sched.WorkerLocal).
func (t *tapQueue) Local() sched.Queue[int32] {
	inner := t.Queue.(sched.WorkerLocal[int32]).Local()
	b, okB := inner.(sched.Batched[int32])
	hv, okH := inner.(interface{ Handle() *core.Handle[int32] })
	if !okB || !okH {
		panic(fmt.Sprintf("perfbench: worker view %T is not a multiqueue handle view", inner))
	}
	l := &tapLocal{inner: b, h: hv.Handle(), rec: t.rec}
	if err := sameInterfaces(inner, l); err != nil {
		panic(err)
	}
	t.rec.mu.Lock()
	t.rec.locals = append(t.rec.locals, l)
	t.rec.mu.Unlock()
	return l
}

// The remaining optional interfaces forward to the adapter.
func (t *tapQueue) MQConfig() core.Config { return t.Queue.(pqadapt.MQConfigured).MQConfig() }
func (t *tapQueue) NumQueues() int        { return t.Queue.(sched.Resizable).NumQueues() }
func (t *tapQueue) Resize(queues, shards int) error {
	return t.Queue.(sched.Resizable).Resize(queues, shards)
}
func (t *tapQueue) Epoch() uint64  { return t.Queue.(sched.Resizable).Epoch() }
func (t *tapQueue) Resizes() int64 { return t.Queue.(sched.Resizable).Resizes() }

// tapLocal is the pass-through view of one goroutine's worker view. It is
// used by that goroutine only.
type tapLocal struct {
	inner sched.Batched[int32]
	h     *core.Handle[int32]
	rec   *recorder

	// serve: the job this worker is serving, completed at its next call.
	busy bool
	last int32
	// order is the job ids this view dequeued, in order.
	order []int32

	// timing state and counts, per operation.
	calls   [numOps]int64
	sampled [numOps]int64
	stats   [numOps][2]callStat
	queueNs int64 // raw duration of every timed call
	timed   int64
	// batch pops: refills that returned nothing, refills, elements popped.
	emptyRefills, refills, popped int64
	spans                         []span
}

// sample reports whether this call of op is timed and by which path.
func (l *tapLocal) sample(op int) (bool, int) {
	if !l.rec.timing {
		return false, 0
	}
	l.calls[op]++
	if l.calls[op]&l.rec.mask != 0 {
		return false, 0
	}
	l.sampled[op]++
	return true, int(l.sampled[op] & 1)
}

// done records one timed call.
func (l *tapLocal) done(op, path int, t0, t1, req int64) {
	r := l.rec
	d := t1 - t0
	l.queueNs += d
	l.timed++
	l.stats[op][path].n++
	l.stats[op][path].ns += d
	if r.spans != nil && l.sampled[op]%16 == 0 {
		l.spans = append(l.spans, span{
			Name: pathNames[path] + "." + opNames[op], Parent: r.parent,
			Start: t0, End: t1, Request: req,
		})
	}
}

func (l *tapLocal) Insert(key uint64, v int32) {
	r := l.rec
	if r.inject != nil {
		r.inject[v] = r.clk.now()
	}
	if r.logging {
		r.events = append(r.events, rankEvent{key, true})
	}
	timed, path := l.sample(opInsert)
	if !timed {
		l.inner.Insert(key, v)
		return
	}
	t0 := r.clk.now()
	if path == viaCore {
		l.h.Insert(key, v)
	} else {
		l.inner.Insert(key, v)
	}
	l.done(opInsert, path, t0, r.clk.now(), l.req(v))
}

func (l *tapLocal) DeleteMin() (uint64, int32, bool) {
	r := l.rec
	if l.busy {
		r.complete[l.last] = r.clk.now()
		l.busy = false
	}
	var k uint64
	var v int32
	var ok bool
	if timed, path := l.sample(opDeleteMin); timed {
		t0 := r.clk.now()
		if path == viaCore {
			k, v, ok = l.h.DeleteMin()
		} else {
			k, v, ok = l.inner.DeleteMin()
		}
		l.done(opDeleteMin, path, t0, r.clk.now(), l.req(v))
	} else {
		k, v, ok = l.inner.DeleteMin()
	}
	if !ok {
		return k, v, ok
	}
	if r.dequeue != nil {
		r.dequeue[v] = r.clk.now()
		l.order = append(l.order, v)
		l.busy, l.last = true, v
	}
	if r.logging {
		r.events = append(r.events, rankEvent{k, false})
	}
	return k, v, ok
}

// InsertBatch and DeleteMinBatch keep sched.Batched. serve-bursty runs
// unbatched, so they record no per-job instants.
func (l *tapLocal) InsertBatch(keys []uint64, vals []int32) {
	r := l.rec
	if r.logging {
		for _, k := range keys {
			r.events = append(r.events, rankEvent{k, true})
		}
	}
	timed, path := l.sample(opInsertBatch)
	if !timed {
		l.inner.InsertBatch(keys, vals)
		return
	}
	t0 := r.clk.now()
	if path == viaCore {
		l.h.InsertBatch(keys, vals)
	} else {
		l.inner.InsertBatch(keys, vals)
	}
	l.done(opInsertBatch, path, t0, r.clk.now(), r.request)
}

func (l *tapLocal) DeleteMinBatch(keys []uint64, vals []int32, k int) int {
	r := l.rec
	var n int
	if timed, path := l.sample(opDeleteMinBatch); timed {
		t0 := r.clk.now()
		if path == viaCore {
			n = l.h.DeleteMinBatch(keys, vals, k)
		} else {
			n = l.inner.DeleteMinBatch(keys, vals, k)
		}
		l.done(opDeleteMinBatch, path, t0, r.clk.now(), r.request)
	} else {
		n = l.inner.DeleteMinBatch(keys, vals, k)
	}
	if n == 0 {
		l.emptyRefills++
	} else {
		l.refills++
		l.popped += int64(n)
	}
	if r.logging {
		for _, key := range keys[:n] {
			r.events = append(r.events, rankEvent{key, false})
		}
	}
	return n
}

// req is the request a single-element call serves: the job in serve, the
// pair (counted by its insert) otherwise.
func (l *tapLocal) req(v int32) int64 {
	if l.rec.inject != nil {
		return int64(v)
	}
	return l.calls[opInsert]
}

// sameInterfaces checks that outer has exactly the optional interfaces
// inner has.
func sameInterfaces(inner, outer any) error {
	checks := []struct {
		name string
		has  func(any) bool
	}{
		{"sched.WorkerLocal", func(x any) bool { _, ok := x.(sched.WorkerLocal[int32]); return ok }},
		{"sched.Batched", func(x any) bool { _, ok := x.(sched.Batched[int32]); return ok }},
		{"sched.Flusher", func(x any) bool { _, ok := x.(sched.Flusher); return ok }},
		{"pqadapt.MQConfigured", func(x any) bool { _, ok := x.(pqadapt.MQConfigured); return ok }},
		{"sched.Resizable", func(x any) bool { _, ok := x.(sched.Resizable); return ok }},
	}
	for _, c := range checks {
		if c.has(inner) != c.has(outer) {
			return fmt.Errorf("view %T differs from the %T it wraps on %s", outer, inner, c.name)
		}
	}
	return nil
}

// handleOf returns the core handle behind a multiqueue worker view.
func handleOf(view sched.Queue[int32]) *core.Handle[int32] {
	return view.(interface{ Handle() *core.Handle[int32] }).Handle()
}

// setHandles records core's per-operation counters over the handles of
// every view the recorder saw, plus extra.
func (r *recorder) setHandles(rep *report, extra ...*core.Handle[int32]) {
	hs := extra
	for _, l := range r.locals {
		hs = append(hs, l.h)
	}
	var s core.HandleStats
	for _, h := range hs {
		st := h.Stats()
		s.Inserts += st.Inserts
		s.Deletes += st.Deletes
		s.LockFails += st.LockFails
		s.EmptyScans += st.EmptyScans
	}
	ops := float64(s.Inserts + s.Deletes)
	if ops == 0 {
		return
	}
	rep.set("core.empty_scans_per_op", float64(s.EmptyScans)/ops)
	rep.set("core.lock_fails_per_op", float64(s.LockFails)/ops)
	rep.note("core handles: %d inserts, %d deletes, %d lock fails, %d empty scans", s.Inserts, s.Deletes, s.LockFails, s.EmptyScans)
}

// setCalls records the mean timed-call cost of each operation and path
// that was timed, net of one clock read.
func (r *recorder) setCalls(rep *report) {
	var tot [numOps][2]callStat
	for _, l := range r.locals {
		for op := range l.stats {
			for p := range l.stats[op] {
				tot[op][p].n += l.stats[op][p].n
				tot[op][p].ns += l.stats[op][p].ns
			}
		}
	}
	for op := range tot {
		for p := range tot[op] {
			if s := tot[op][p]; s.n > 0 {
				rep.set(pathNames[p]+"."+opNames[op]+"_ns", float64(s.ns)/float64(s.n)-r.clockNs)
			}
		}
	}
}

// flushSpans moves the views' spans into the span log.
func (r *recorder) flushSpans() {
	for _, l := range r.locals {
		for _, s := range l.spans {
			r.spans.add(s)
		}
		l.spans = nil
	}
}
