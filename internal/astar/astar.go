// Package astar implements parallel A* over implicit grid graphs with
// obstacles, a scheduling workload for the sched executor. A* keys are
// f = g + h with an admissible octile-distance heuristic, so — unlike
// Dijkstra's monotone keys — popped keys are non-monotone even
// sequentially: the workload exercises relaxed pop order far harder than
// SSSP. Exactness under relaxation comes from the same two ingredients as
// branch-and-bound: label-correcting g-scores (stale pops re-checked
// against an atomic array) and an incumbent bound (the best goal cost seen)
// that prunes entries which can no longer improve it. Admissibility makes
// the incumbent prune safe: every node on a strictly better goal path has
// f below the incumbent.
package astar

import (
	"fmt"
	"math"
	"sync/atomic"

	"powerchoice/internal/pqueue"
	"powerchoice/internal/sched"
	"powerchoice/internal/xrand"
)

// Inf is the cost of an unreachable goal.
const Inf = math.MaxUint64

// Movement costs: 10 per straight step, 14 per diagonal (≈ 10·√2, rounded
// down so the octile heuristic stays admissible).
const (
	costStraight = 10
	costDiagonal = 14
)

// Grid is an implicit 8-connected W×H grid with blocked cells. Node IDs are
// y·W + x; the graph is never materialised — neighbours are generated on
// the fly.
type Grid struct {
	W, H    int
	Start   int32
	Goal    int32
	blocked []bool
}

// NewGrid generates a grid with independently random obstacles at the given
// density, keeping the start (top-left) and goal (bottom-right) corners
// open. The goal may still be unreachable at high densities; Sequential and
// Parallel report that as cost Inf.
func NewGrid(w, h int, obstacleFrac float64, seed uint64) (*Grid, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("astar: grid needs w,h >= 2, got %dx%d", w, h)
	}
	if obstacleFrac < 0 || obstacleFrac >= 1 {
		return nil, fmt.Errorf("astar: obstacleFrac %v outside [0,1)", obstacleFrac)
	}
	if w*h > math.MaxInt32 {
		return nil, fmt.Errorf("astar: %dx%d grid overflows int32 node IDs", w, h)
	}
	rng := xrand.NewSource(seed)
	g := &Grid{
		W: w, H: h,
		Start:   0,
		Goal:    int32(w*h - 1),
		blocked: make([]bool, w*h),
	}
	for i := range g.blocked {
		g.blocked[i] = rng.Float64() < obstacleFrac
	}
	g.blocked[g.Start] = false
	g.blocked[g.Goal] = false
	return g, nil
}

// Blocked reports whether cell u is an obstacle.
func (g *Grid) Blocked(u int32) bool { return g.blocked[u] }

// NumNodes returns the cell count.
func (g *Grid) NumNodes() int { return g.W * g.H }

// Heuristic returns the octile distance from u to the goal: the exact cost
// of the obstacle-free shortest path, hence admissible (and consistent) for
// the grid's 10/14 step costs.
func (g *Grid) Heuristic(u int32) uint64 {
	ux, uy := int(u)%g.W, int(u)/g.W
	gx, gy := int(g.Goal)%g.W, int(g.Goal)/g.W
	dx, dy := ux-gx, uy-gy
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	min, max := dx, dy
	if min > max {
		min, max = max, min
	}
	return uint64(costDiagonal*min + costStraight*(max-min))
}

// neighbors invokes fn for each open neighbour of u with its step cost.
var dirs = [8][3]int{
	{1, 0, costStraight}, {-1, 0, costStraight}, {0, 1, costStraight}, {0, -1, costStraight},
	{1, 1, costDiagonal}, {1, -1, costDiagonal}, {-1, 1, costDiagonal}, {-1, -1, costDiagonal},
}

func (g *Grid) neighbors(u int32, fn func(v int32, cost uint64)) {
	ux, uy := int(u)%g.W, int(u)/g.W
	for _, d := range dirs {
		x, y := ux+d[0], uy+d[1]
		if x < 0 || x >= g.W || y < 0 || y >= g.H {
			continue
		}
		v := int32(y*g.W + x)
		if g.blocked[v] {
			continue
		}
		fn(v, uint64(d[2]))
	}
}

// SeqResult reports a sequential A* run.
type SeqResult struct {
	// Cost is the optimal start→goal cost, Inf when unreachable.
	Cost uint64
	// Expanded counts nodes popped and expanded (the baseline for the
	// parallel run's search overhead).
	Expanded int64
}

// Sequential runs textbook A* with a binary heap; it is the correctness
// reference and the single-thread work baseline.
func Sequential(g *Grid) SeqResult {
	n := g.NumNodes()
	gs := make([]uint64, n)
	for i := range gs {
		gs[i] = Inf
	}
	gs[g.Start] = 0
	pq := pqueue.NewBinaryHeap[int32]()
	pq.Push(g.Heuristic(g.Start), g.Start)
	var expanded int64
	for {
		it, ok := pq.PopMin()
		if !ok {
			break
		}
		u := it.Value
		gu := it.Key - g.Heuristic(u)
		if gu > gs[u] {
			continue // stale entry
		}
		if u == g.Goal {
			return SeqResult{Cost: gu, Expanded: expanded}
		}
		expanded++
		g.neighbors(u, func(v int32, cost uint64) {
			if ng := gu + cost; ng < gs[v] {
				gs[v] = ng
				pq.Push(ng+g.Heuristic(v), v)
			}
		})
	}
	return SeqResult{Cost: Inf, Expanded: expanded}
}

// Result reports a parallel A* run.
type Result struct {
	// Cost is the optimal start→goal cost, Inf when unreachable. It equals
	// the sequential cost regardless of the queue's relaxation.
	Cost uint64
	// Stats are the executor's work counters; Stats.Stale is the wasted
	// work the relaxation (plus parallel speculation) paid for.
	Stats sched.Stats
}

// Parallel runs label-correcting A* with `workers` goroutines sharing the
// given relaxed priority queue. Values carry grid cell IDs; keys are
// f = g + h, with g recovered from the key via the deterministic heuristic
// so entries stay a single (uint64, int32) pair.
func Parallel(g *Grid, q sched.Queue[int32], workers int) (Result, error) {
	return ParallelBatch(g, q, workers, 1)
}

// ParallelBatch is Parallel with the executor's batch size exposed (see
// sched.Config.Batch). Batching is sound for A* exactly as relaxation is:
// g-scores are label-correcting and the incumbent prune only ever discards
// entries that cannot improve the goal cost, so entries delayed in
// worker-local buffers cost extra stale pops, never optimality of the
// returned cost.
func ParallelBatch(g *Grid, q sched.Queue[int32], workers, batch int) (Result, error) {
	if q == nil {
		return Result{}, fmt.Errorf("astar: nil queue")
	}
	// gs is a plain slice so that filling it costs plain stores rather
	// than one locked exchange per cell. The fill happens before
	// sched.RunConfig's go statements, which order it before every worker;
	// the workers then touch gs only atomically.
	n := g.NumNodes()
	gs := make([]uint64, n)
	for i := range gs {
		gs[i] = Inf
	}
	gs[g.Start] = 0
	// best is the incumbent goal cost; entries with f >= best cannot lead
	// to an improvement (h admissible) and are pruned as stale.
	var best atomic.Uint64
	best.Store(Inf)
	raiseBest := func(v uint64) {
		for {
			c := best.Load()
			if v >= c || best.CompareAndSwap(c, v) {
				return
			}
		}
	}

	task := func(key uint64, u int32, push func(uint64, int32)) bool {
		gu := key - g.Heuristic(u)
		if key >= best.Load() || gu > atomic.LoadUint64(&gs[u]) {
			return false // pruned or stale
		}
		g.neighbors(u, func(v int32, cost uint64) {
			ng := gu + cost
			nf := ng + g.Heuristic(v)
			if nf >= best.Load() {
				return
			}
			for {
				cur := atomic.LoadUint64(&gs[v])
				if ng >= cur {
					return
				}
				if atomic.CompareAndSwapUint64(&gs[v], cur, ng) {
					if v == g.Goal {
						raiseBest(ng) // h(goal) = 0: nf is the path cost
					} else {
						push(nf, v)
					}
					return
				}
			}
		})
		return true
	}
	q.Insert(g.Heuristic(g.Start), g.Start)
	st := sched.RunConfig(q, sched.Config{Workers: workers, Batch: batch}, task, 1)
	return Result{Cost: gs[g.Goal], Stats: st}, nil
}
