// Package pqadapt adapts each concurrent priority queue in this repository
// to the graph.ConcurrentPQ interface, so the parallel SSSP driver and the
// benchmark harness can treat them uniformly. It also names the line-up of
// implementations benchmarked by the paper's Figures 1–3.
package pqadapt

import (
	"fmt"
	"sync"

	"powerchoice/internal/core"
	"powerchoice/internal/graph"
	"powerchoice/internal/klsm"
	"powerchoice/internal/pqueue"
	"powerchoice/internal/sched"
	"powerchoice/internal/skiplist"
)

// Impl names a concurrent priority queue implementation.
type Impl string

// The benchmark line-up (§5).
const (
	// ImplMultiQueue is the original MultiQueue (β = 1).
	ImplMultiQueue Impl = "multiqueue"
	// ImplOneBeta75 is the paper's (1+β) MultiQueue with β = 0.75.
	ImplOneBeta75 Impl = "onebeta75"
	// ImplOneBeta50 is the paper's (1+β) MultiQueue with β = 0.5.
	ImplOneBeta50 Impl = "onebeta50"
	// ImplSkipList is the Lindén–Jonsson-style skiplist (exact PQ).
	ImplSkipList Impl = "skiplist"
	// ImplKLSM is the k-LSM-style relaxed queue with k = 256.
	ImplKLSM Impl = "klsm256"
	// ImplGlobalLock is a mutex-protected binary heap, the naive baseline.
	ImplGlobalLock Impl = "globallock"
)

// Impls lists the full benchmark line-up in presentation order.
func Impls() []Impl {
	return []Impl{
		ImplOneBeta50, ImplOneBeta75, ImplMultiQueue,
		ImplSkipList, ImplKLSM, ImplGlobalLock,
	}
}

// PaperQueues is the fixed queue count of the paper's rank-quality
// experiments (§5, Figure 2: n = 8 queues, 8 threads). Rank harnesses pin
// the MultiQueue legs to this topology so the measured relaxation is a
// property of the configuration, not of the host's core count.
const PaperQueues = 8

// IsMultiQueue reports whether impl is backed by a core.MultiQueue, i.e.
// whether an explicit queue count applies to it.
func IsMultiQueue(impl Impl) bool {
	_, ok := mqBeta(impl)
	return ok
}

// mqBeta maps a MultiQueue line-up implementation to its β.
func mqBeta(impl Impl) (float64, bool) {
	switch impl {
	case ImplMultiQueue:
		return 1, true
	case ImplOneBeta75:
		return 0.75, true
	case ImplOneBeta50:
		return 0.5, true
	}
	return 0, false
}

// Spec pins down one line-up construction precisely enough to reproduce it
// on any machine.
type Spec struct {
	// Impl selects the implementation.
	Impl Impl
	// Queues fixes the internal queue count of MultiQueue implementations;
	// 0 derives it from the host (factor × GOMAXPROCS with a floor). The
	// field is ignored for implementations without internal queues.
	Queues int
	// Seed fixes all randomness.
	Seed uint64
}

// Topology describes what a constructed queue actually resolved to, for
// benchmark output. Queues/Choices/Beta are zero for implementations they
// do not apply to.
type Topology struct {
	Impl    Impl    `json:"impl"`
	Queues  int     `json:"queues,omitempty"`
	Choices int     `json:"choices,omitempty"`
	Beta    float64 `json:"beta,omitempty"`
}

// MQConfigured is implemented by adapters backed by a core.MultiQueue and
// exposes the resolved core configuration.
type MQConfigured interface {
	MQConfig() core.Config
}

// TopologyOf reports the resolved topology of a constructed queue.
func TopologyOf(impl Impl, q Queue) Topology {
	top := Topology{Impl: impl}
	if c, ok := q.(MQConfigured); ok {
		cfg := c.MQConfig()
		top.Queues = cfg.Queues
		top.Choices = cfg.Choices
		top.Beta = cfg.Beta
	}
	return top
}

// Queue is a graph.ConcurrentPQ with a size accessor, satisfied by every
// adapter in this package.
type Queue interface {
	graph.ConcurrentPQ
	Len() int
}

// New constructs the named implementation, seeded deterministically, with
// MultiQueue topologies derived from the host. Harnesses that must be
// machine-independent should use NewSpec with an explicit queue count.
func New(impl Impl, seed uint64) (Queue, error) {
	return NewSpec(Spec{Impl: impl, Seed: seed})
}

// NewSpec constructs the implementation named by the spec. For MultiQueue
// implementations a non-zero Spec.Queues pins the internal queue count —
// the paper's fixed-topology experiments use PaperQueues — instead of
// deriving it from GOMAXPROCS.
func NewSpec(spec Spec) (Queue, error) {
	if beta, ok := mqBeta(spec.Impl); ok {
		return NewMultiQueueSpec(beta, spec)
	}
	switch spec.Impl {
	case ImplSkipList:
		return &skipAdapter{s: skiplist.New[int32](spec.Seed)}, nil
	case ImplKLSM:
		q, err := klsm.New[int32](256, 8)
		if err != nil {
			return nil, err
		}
		return &klsmAdapter{q: q}, nil
	case ImplGlobalLock:
		return &lockedHeap{h: pqueue.NewBinaryHeap[int32]()}, nil
	default:
		return nil, fmt.Errorf("pqadapt: unknown implementation %q", spec.Impl)
	}
}

// NewMultiQueueBeta constructs a (1+β) MultiQueue adapter with an arbitrary
// β, for the β-sweep experiments (Figure 2, ablation A2). queues = 0 derives
// the count from the host.
func NewMultiQueueBeta(beta float64, queues int, seed uint64) (Queue, error) {
	return NewMultiQueueSpec(beta, Spec{Queues: queues, Seed: seed})
}

// NewMultiQueueSpec constructs a (1+β) MultiQueue adapter with an arbitrary
// β and the spec's queue count and seed (spec.Impl is not consulted).
func NewMultiQueueSpec(beta float64, spec Spec) (Queue, error) {
	opts := []core.Option{core.WithBeta(beta), core.WithSeed(spec.Seed)}
	if spec.Queues > 0 {
		opts = append(opts, core.WithQueues(spec.Queues))
	}
	mq, err := core.New[int32](opts...)
	if err != nil {
		return nil, err
	}
	return &mqAdapter{mq: mq}, nil
}

// mqAdapter adapts core.MultiQueue.
type mqAdapter struct {
	mq *core.MultiQueue[int32]
}

var (
	_ graph.WorkerLocal = (*mqAdapter)(nil)
	_ sched.Resizable   = (*mqAdapter)(nil)
)

func (a *mqAdapter) Insert(key uint64, node int32) { a.mq.Insert(key, node) }

// MQConfig exposes the resolved core configuration (see MQConfigured).
func (a *mqAdapter) MQConfig() core.Config { return a.mq.Config() }
func (a *mqAdapter) DeleteMin() (uint64, int32, bool) {
	return a.mq.DeleteMin()
}
func (a *mqAdapter) Len() int { return a.mq.Len() }

// The sched.Resizable stubs (see there): the queue set is fixed at
// construction, so only NumQueues reports anything.
func (a *mqAdapter) NumQueues() int { return a.mq.NumQueues() }
func (a *mqAdapter) Epoch() uint64  { return 0 }
func (a *mqAdapter) Resizes() int64 { return 0 }

// Resize always fails: the MultiQueue's queue set is fixed at construction.
func (a *mqAdapter) Resize(queues, shards int) error {
	return fmt.Errorf("pqadapt: resize to %d queues: the MultiQueue's queue set is fixed at construction", queues)
}

// Local returns a handle-backed per-goroutine view.
func (a *mqAdapter) Local() graph.ConcurrentPQ {
	return &mqLocal{h: a.mq.Handle()}
}

// mqLocal is the per-goroutine MultiQueue view. It implements sched.Batched
// (one lock acquisition per k elements) on top of the core handle's native
// batch operations, so batched executor runs hit the devirtualized bulk
// path instead of the loop fallback.
type mqLocal struct {
	h *core.Handle[int32]
}

var _ sched.Batched[int32] = (*mqLocal)(nil)

func (l *mqLocal) Insert(key uint64, node int32)    { l.h.Insert(key, node) }
func (l *mqLocal) DeleteMin() (uint64, int32, bool) { return l.h.DeleteMin() }

func (l *mqLocal) InsertBatch(keys []uint64, vals []int32) { l.h.InsertBatch(keys, vals) }
func (l *mqLocal) DeleteMinBatch(keys []uint64, vals []int32, k int) int {
	return l.h.DeleteMinBatch(keys, vals, k)
}

// Handle exposes the underlying core handle (its HandleStats counters) to
// harnesses that need more than the sched interfaces.
func (l *mqLocal) Handle() *core.Handle[int32] { return l.h }

// skipAdapter adapts skiplist.SkipList (already goroutine-agnostic).
type skipAdapter struct {
	s *skiplist.SkipList[int32]
}

func (a *skipAdapter) Insert(key uint64, node int32)    { a.s.Insert(key, node) }
func (a *skipAdapter) DeleteMin() (uint64, int32, bool) { return a.s.DeleteMin() }
func (a *skipAdapter) Len() int                         { return a.s.Len() }

// klsmAdapter adapts klsm.Queue. The shared adapter keeps one fallback
// handle under a mutex for callers that do not request a local view; worker
// loops get genuine per-goroutine handles via Local.
type klsmAdapter struct {
	q  *klsm.Queue[int32]
	mu sync.Mutex
	h  *klsm.Handle[int32]
}

var _ graph.WorkerLocal = (*klsmAdapter)(nil)

func (a *klsmAdapter) handle() *klsm.Handle[int32] {
	if a.h == nil {
		a.h = a.q.Handle()
	}
	return a.h
}

// Insert buffers through the fallback handle, which publishes to the shared
// component in insert-bound batches — the k-LSM's amortisation. Flushing
// per element here would take the structure's internal lock on every insert
// (on top of the adapter mutex), exactly the contention batching exists to
// avoid. Elements still pending in the buffer are visible to this adapter's
// DeleteMin (same handle) and are published to everyone by the next natural
// batch flush or by Local.
func (a *klsmAdapter) Insert(key uint64, node int32) {
	a.mu.Lock()
	a.handle().Insert(key, node)
	a.mu.Unlock()
}

func (a *klsmAdapter) DeleteMin() (uint64, int32, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.handle().DeleteMin()
}

func (a *klsmAdapter) Len() int { return a.q.Len() }

// Local returns a per-goroutine k-LSM handle view. It first publishes any
// inserts still batched in the shared fallback handle, so a worker view
// observes everything inserted through the adapter before its creation.
func (a *klsmAdapter) Local() graph.ConcurrentPQ {
	a.mu.Lock()
	if a.h != nil {
		a.h.Flush()
	}
	a.mu.Unlock()
	return &klsmLocal{h: a.q.Handle()}
}

type klsmLocal struct {
	h *klsm.Handle[int32]
}

var _ sched.Flusher = (*klsmLocal)(nil)

func (l *klsmLocal) Insert(key uint64, node int32)    { l.h.Insert(key, node) }
func (l *klsmLocal) DeleteMin() (uint64, int32, bool) { return l.h.DeleteMin() }

// Flush publishes inserts still buffered in this view (sched.Flusher) —
// required by goroutines that stop inserting while others keep consuming,
// e.g. open-system producers.
func (l *klsmLocal) Flush() { l.h.Flush() }

// lockedHeap is the global-lock baseline: a binary heap behind one mutex.
type lockedHeap struct {
	mu sync.Mutex
	h  *pqueue.BinaryHeap[int32]
}

func (l *lockedHeap) Insert(key uint64, node int32) {
	l.mu.Lock()
	l.h.Push(key, node)
	l.mu.Unlock()
}

func (l *lockedHeap) DeleteMin() (uint64, int32, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	it, ok := l.h.PopMin()
	return it.Key, it.Value, ok
}

func (l *lockedHeap) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Len()
}
