package seqproc

import (
	"fmt"

	"powerchoice/internal/fenwick"
	"powerchoice/internal/pqueue"
	"powerchoice/internal/xrand"
)

// GeneralProcess drops the paper's FIFO assumption (§5 "Applications": the
// analysed process inserts labels in strictly increasing order; real
// priority queues face *general* priority insertions). Each queue is a real
// heap, insertions carry arbitrary priorities from a bounded universe, and
// removal follows the (1+β) two-choice rule. An insertion may land below a
// queue's current top — the "visible inversion" the prefixed condition
// (Definition 1) rules out — so this process probes the regime beyond the
// theorems, where the experiments show the O(n) behaviour persists under
// stationary priority churn.
type GeneralProcess struct {
	queues   []*pqueue.DAryHeap[struct{}]
	present  *fenwick.Tree // multiplicity per priority
	beta     float64
	rng      *xrand.Source
	size     int
	universe int
}

// NewGeneral builds a general-priority process over n queues with
// priorities in [0, universe).
func NewGeneral(n int, universe int, beta float64, seed uint64) (*GeneralProcess, error) {
	if n < 1 {
		return nil, fmt.Errorf("seqproc: NewGeneral needs n >= 1")
	}
	if universe < 1 {
		return nil, fmt.Errorf("seqproc: NewGeneral needs a positive priority universe")
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("seqproc: beta %v outside [0,1]", beta)
	}
	g := &GeneralProcess{
		queues:   make([]*pqueue.DAryHeap[struct{}], n),
		present:  fenwick.New(universe),
		beta:     beta,
		rng:      xrand.NewSource(seed),
		universe: universe,
	}
	for i := range g.queues {
		g.queues[i] = pqueue.NewDAryHeap[struct{}]()
	}
	return g, nil
}

// Size returns the number of elements present.
func (g *GeneralProcess) Size() int { return g.size }

// Insert adds an element with the given priority to a uniformly random
// queue.
func (g *GeneralProcess) Insert(priority int) error {
	if priority < 0 || priority >= g.universe {
		return fmt.Errorf("seqproc: priority %d outside [0,%d)", priority, g.universe)
	}
	q := g.rng.Intn(len(g.queues))
	g.queues[q].Push(uint64(priority), struct{}{})
	g.present.Add(priority, 1)
	g.size++
	return nil
}

// InsertUniformRandom inserts a uniformly random priority and returns it.
func (g *GeneralProcess) InsertUniformRandom() (int, error) {
	p := g.rng.Intn(g.universe)
	return p, g.Insert(p)
}

// Remove performs one (1+β) removal and returns the removed priority and
// its rank among present elements (1 = global minimum). ok=false only when
// the process is empty.
func (g *GeneralProcess) Remove() (priority int, rank int64, ok bool) {
	if g.size == 0 {
		return 0, 0, false
	}
	n := len(g.queues)
	q := -1
	if g.rng.Bernoulli(g.beta) && n >= 2 {
		i, j := g.rng.TwoDistinct(n)
		ti, iok := g.queues[i].PeekMin()
		tj, jok := g.queues[j].PeekMin()
		switch {
		case iok && jok:
			if ti.Key <= tj.Key {
				q = i
			} else {
				q = j
			}
		case iok:
			q = i
		case jok:
			q = j
		}
	} else {
		c := g.rng.Intn(n)
		if _, cok := g.queues[c].PeekMin(); cok {
			q = c
		}
	}
	if q < 0 {
		// Sampled queues empty: scan for any non-empty queue.
		for i := 0; i < n; i++ {
			if _, iok := g.queues[i].PeekMin(); iok {
				q = i
				break
			}
		}
		if q < 0 {
			return 0, 0, false
		}
	}
	it, _ := g.queues[q].PopMin()
	p := int(it.Key)
	// Priorities are not unique, so rank counts strictly smaller elements
	// plus one: removing any copy of the global minimum costs rank 1.
	r := g.present.PrefixSum(p-1) + 1
	g.present.Add(p, -1)
	g.size--
	return p, r, true
}
