// Package seqproc implements the sequential random processes analysed by the
// paper (§3–§4 and appendices):
//
//   - the original labelled process: n queues, consecutively labelled
//     elements inserted uniformly at random (or biased by γ, or round-robin),
//     removals by the (1+β) two-choice rule, with the cost of a removal being
//     the rank of the removed label among all labels still present;
//   - the exponential process of §4.1, with real-valued labels generated by
//     per-bin exponential increments, whose rank distribution is provably
//     identical (Theorem 2);
//   - the potential functions Φ, Ψ, Γ of §4.2 (Theorem 3);
//   - reusable experiment runners for Theorems 1, 2, 3 and 6 and for the
//     Appendix A round-robin reduction.
//
// All processes are deterministic given a seed and are not safe for
// concurrent use.
package seqproc

import (
	"fmt"

	"powerchoice/internal/fenwick"
	"powerchoice/internal/xrand"
)

// InsertMode selects the insertion distribution of §3.
type InsertMode int

// Insertion modes.
const (
	// InsertUniform inserts each label into a uniformly random queue.
	InsertUniform InsertMode = iota + 1
	// InsertRoundRobin inserts label t into queue t mod n (Appendix A).
	InsertRoundRobin
	// InsertBiased inserts according to a γ-bounded distribution π with
	// 1-γ ≤ 1/(nπ_i) ≤ 1+γ (§3).
	InsertBiased
)

// Config parameterises a sequential process.
type Config struct {
	// N is the number of queues (n in the paper).
	N int
	// Beta is the probability of a two-choice removal; 1-Beta of the time a
	// single random queue is used. Beta=1 is the pure two-choice process,
	// Beta=0 the single-choice process of Theorem 6.
	Beta float64
	// Choices is the number of queues a choice-removal samples: 2, the
	// paper's rule and the default when zero (1 when N is 1), or 1, which
	// makes every removal a single-choice step whatever Beta says. With
	// N = 2 a two-choice step inspects every queue, so at Beta 1 the
	// process is exact.
	Choices int
	// Gamma bounds the insertion bias for InsertBiased (0 ≤ γ < 1).
	Gamma float64
	// Insert selects the insertion distribution. Zero value defaults to
	// InsertUniform.
	Insert InsertMode
	// Seed makes the process deterministic.
	Seed uint64
}

func (c *Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("seqproc: need at least 1 queue, got %d", c.N)
	}
	if c.Beta < 0 || c.Beta > 1 {
		return fmt.Errorf("seqproc: beta %v outside [0,1]", c.Beta)
	}
	if c.Gamma < 0 || c.Gamma >= 1 {
		return fmt.Errorf("seqproc: gamma %v outside [0,1)", c.Gamma)
	}
	if c.Insert == 0 {
		c.Insert = InsertUniform
	}
	if c.Insert != InsertUniform && c.Insert != InsertRoundRobin && c.Insert != InsertBiased {
		return fmt.Errorf("seqproc: unknown insert mode %d", c.Insert)
	}
	if c.Choices == 0 {
		c.Choices = 2
		if c.N < 2 {
			c.Choices = 1
		}
	}
	if c.Choices < 1 || c.Choices > min(2, c.N) {
		return fmt.Errorf("seqproc: choices %d outside [1,%d]", c.Choices, min(2, c.N))
	}
	return nil
}

// Removal describes one completed removal step.
type Removal struct {
	// Label is the removed label (0-based insertion order).
	Label int
	// Rank is the removed label's rank among labels present before the
	// removal; the minimum possible rank is 1 (§3).
	Rank int64
	// Queue is the queue removed from.
	Queue int
}

// Process is the original labelled sequential process. Labels are the
// integers 0,1,2,... in insertion order; because labels only increase, each
// queue is a FIFO whose head is its minimum.
type Process struct {
	cfg     Config
	queues  [][]int // per-queue labels, ascending; live region starts at head
	heads   []int
	present *fenwick.Tree // 1 while the label is in some queue
	next    int           // next label to insert
	size    int           // total labels present
	rng     *xrand.Source
	alias   *xrand.Alias // insertion distribution for InsertBiased
	rr      int          // round-robin cursor

	removals         int64
	emptyInspections int64
}

// New returns a process able to hold up to capacity labels over its
// lifetime (inserted labels are 0..capacity-1).
func New(cfg Config, capacity int) (*Process, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if capacity < 1 {
		return nil, fmt.Errorf("seqproc: capacity %d < 1", capacity)
	}
	p := &Process{
		cfg:     cfg,
		queues:  make([][]int, cfg.N),
		heads:   make([]int, cfg.N),
		present: fenwick.New(capacity),
		rng:     xrand.NewSource(cfg.Seed),
	}
	if cfg.Insert == InsertBiased {
		w, err := xrand.BiasedWeights(cfg.N, cfg.Gamma)
		if err != nil {
			return nil, err
		}
		a, err := xrand.NewAlias(w)
		if err != nil {
			return nil, err
		}
		p.alias = a
	}
	return p, nil
}

// NewFromBins builds a process whose queues are pre-loaded with the given
// ascending label sequences, bypassing the insertion process. It is the
// constructor used to couple the original process to the exponential process
// (§4: "couple the insertion steps such that each bin contains the same
// sequence of ranks in both processes"). Labels must be non-negative and
// strictly ascending within each bin.
func NewFromBins(bins [][]int, beta float64, seed uint64) (*Process, error) {
	cfg := Config{N: len(bins), Beta: beta, Insert: InsertUniform, Seed: seed}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxLabel := 0
	total := 0
	for _, b := range bins {
		for i, l := range b {
			if l < 0 {
				return nil, fmt.Errorf("seqproc: negative label %d", l)
			}
			if i > 0 && b[i-1] >= l {
				return nil, fmt.Errorf("seqproc: bin labels not ascending at %d", l)
			}
			if l > maxLabel {
				maxLabel = l
			}
			total++
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("seqproc: no labels")
	}
	p := &Process{
		cfg:     cfg,
		queues:  make([][]int, cfg.N),
		heads:   make([]int, cfg.N),
		present: fenwick.New(maxLabel + 1),
		rng:     xrand.NewSource(seed),
		next:    maxLabel + 1,
	}
	for i, b := range bins {
		p.queues[i] = append([]int(nil), b...)
		for _, l := range b {
			p.present.Add(l, 1)
		}
	}
	p.size = total
	return p, nil
}

// N returns the number of queues.
func (p *Process) N() int { return p.cfg.N }

// Size returns the number of labels currently present.
func (p *Process) Size() int { return p.size }

// Removals returns the number of completed removal steps (the paper's t).
func (p *Process) Removals() int64 { return p.removals }

// EmptyInspections counts how often a removal step touched an empty queue.
// Prefixed executions (Definition 1) keep this at or near zero; tests use it
// to verify that workloads stay in the regime the theorems assume.
func (p *Process) EmptyInspections() int64 { return p.emptyInspections }

// Insert inserts the next label according to the configured insertion
// distribution and returns (label, queue). It returns an error when capacity
// is exhausted.
func (p *Process) Insert() (int, int, error) {
	if p.next >= p.present.Len() {
		return 0, 0, fmt.Errorf("seqproc: capacity %d exhausted", p.present.Len())
	}
	var q int
	switch p.cfg.Insert {
	case InsertRoundRobin:
		q = p.rr
		p.rr = (p.rr + 1) % p.cfg.N
	case InsertBiased:
		q = p.alias.Sample(p.rng)
	default:
		q = p.rng.Intn(p.cfg.N)
	}
	label := p.next
	p.next++
	p.queues[q] = append(p.queues[q], label)
	p.present.Add(label, 1)
	p.size++
	return label, q, nil
}

// InsertMany performs k insertions.
func (p *Process) InsertMany(k int) error {
	for i := 0; i < k; i++ {
		if _, _, err := p.Insert(); err != nil {
			return err
		}
	}
	return nil
}

// Top returns the minimum label of queue i, or ok=false if the queue is
// empty.
func (p *Process) Top(i int) (int, bool) {
	if p.heads[i] >= len(p.queues[i]) {
		return 0, false
	}
	return p.queues[i][p.heads[i]], true
}

// Remove performs one removal step of the (1+β) process and reports the
// removed label, its rank, and the queue used. It returns ok=false only when
// every queue is empty.
func (p *Process) Remove() (Removal, bool) {
	if p.size == 0 {
		return Removal{}, false
	}
	// Draw order matters for coupling: first the β coin, then the queue
	// indices, exactly mirroring ExpProcess.Remove.
	var q int
	if p.rng.Bernoulli(p.cfg.Beta) && p.cfg.Choices == 2 {
		i, j := p.rng.TwoDistinct(p.cfg.N)
		q = p.betterOf(i, j)
	} else {
		q = p.rng.Intn(p.cfg.N)
		if _, ok := p.Top(q); !ok {
			p.emptyInspections++
			q = p.firstNonEmptyFrom(q)
		}
	}
	if q < 0 {
		return Removal{}, false
	}
	return p.removeFrom(q), true
}

// RemoveAt performs a removal with externally supplied queue choices: a
// two-choice step over queues i and j when j >= 0, otherwise a single-choice
// step at i. It exists so couplings (Theorem 2, Appendix A) can drive two
// processes with an identical choice sequence.
func (p *Process) RemoveAt(i, j int) (Removal, bool) {
	if p.size == 0 {
		return Removal{}, false
	}
	q := i
	if j >= 0 {
		q = p.betterOf(i, j)
	} else if _, ok := p.Top(q); !ok {
		p.emptyInspections++
		q = p.firstNonEmptyFrom(q)
	}
	if q < 0 {
		return Removal{}, false
	}
	return p.removeFrom(q), true
}

// betterOf returns the queue with the smaller top label, treating empty
// queues as +inf. It returns -1 if both are empty. Labels are unique, so no
// tie-break is needed.
func (p *Process) betterOf(i, j int) int {
	ti, iok := p.Top(i)
	tj, jok := p.Top(j)
	switch {
	case iok && jok:
		if ti <= tj {
			return i
		}
		return j
	case iok:
		p.emptyInspections++
		return i
	case jok:
		p.emptyInspections++
		return j
	default:
		p.emptyInspections += 2
		return p.firstNonEmptyFrom(i)
	}
}

// firstNonEmptyFrom scans circularly from start for a non-empty queue. It is
// only reached outside the prefixed regime; the scan keeps the process total
// and avoids unbounded redraw loops.
func (p *Process) firstNonEmptyFrom(start int) int {
	for k := 0; k < p.cfg.N; k++ {
		q := (start + k) % p.cfg.N
		if p.heads[q] < len(p.queues[q]) {
			return q
		}
	}
	return -1
}

// removeFrom pops the head of queue q and accounts for rank cost.
func (p *Process) removeFrom(q int) Removal {
	label := p.queues[q][p.heads[q]]
	rank := p.present.PrefixSum(label)
	p.present.Add(label, -1)
	p.heads[q]++
	p.size--
	p.removals++
	p.compact(q)
	return Removal{Label: label, Rank: rank, Queue: q}
}

// compact reclaims the dead prefix of queue q once it dominates the slice,
// keeping steady-state memory proportional to live elements.
func (p *Process) compact(q int) {
	h := p.heads[q]
	if h >= 1024 && h*2 >= len(p.queues[q]) {
		n := copy(p.queues[q], p.queues[q][h:])
		p.queues[q] = p.queues[q][:n]
		p.heads[q] = 0
	}
}

// TopRanks returns the rank of each queue's top label among all present
// labels; empty queues are skipped. The maximum of these is the "max rank"
// of Theorem 1/Theorem 4.
func (p *Process) TopRanks() []int64 {
	out := make([]int64, 0, p.cfg.N)
	for i := 0; i < p.cfg.N; i++ {
		if l, ok := p.Top(i); ok {
			out = append(out, p.present.PrefixSum(l))
		}
	}
	return out
}

// MaxTopRank returns the largest top rank (0 when all queues are empty).
func (p *Process) MaxTopRank() int64 {
	var max int64
	for _, r := range p.TopRanks() {
		if r > max {
			max = r
		}
	}
	return max
}

// TopWeights returns the top label of every queue as float64 (for potential
// computations on the original process). Empty queues report ok=false in the
// parallel mask.
func (p *Process) TopWeights() ([]float64, []bool) {
	w := make([]float64, p.cfg.N)
	ok := make([]bool, p.cfg.N)
	for i := 0; i < p.cfg.N; i++ {
		if l, good := p.Top(i); good {
			w[i] = float64(l)
			ok[i] = true
		}
	}
	return w, ok
}
