package driver

import (
	"flag"
	"fmt"
	"io"
	"time"

	"powerchoice/internal/bench"
	"powerchoice/internal/graph"
	"powerchoice/internal/pqadapt"
)

// runSSSP regenerates Figure 3: running time of a parallel single-source
// shortest-path computation over the line-up. The paper's California road
// network is replaced by a synthetic road-network surrogate (EXPERIMENTS.md,
// "Figure 3", gives the reason).
func runSSSP(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench sssp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	grid := fs.Int("grid", 300, "road network is grid x grid intersections")
	diag := fs.Float64("diag", 0.15, "fraction of diagonal shortcuts")
	threadsFlag := fs.String("threads", defaultThreads(), "comma-separated thread counts")
	implsFlag := fs.String("impls", allImpls(), "comma-separated implementations")
	queues := fs.Int("queues", 0, "pin the MultiQueue queue count (0 = derive from the host)")
	batch := fs.Int("batch", 0, "executor bulk-operation size k (0/1 = unbatched)")
	reps := fs.Int("reps", 3, "repetitions per configuration (best time reported)")
	seed := fs.Uint64("seed", 42, "root random seed")
	verify := fs.Bool("verify", false, "verify distances against sequential Dijkstra")
	var out output
	out.addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	normalizeBatch(batch)
	g, err := graph.RoadNetwork(*grid, *grid, *diag, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "road network: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		return err
	}
	if *reps < 1 {
		*reps = 1
	}
	// Sequential Dijkstra: the reference time, and the distances -verify
	// checks every run against.
	seqStart := time.Now()
	want, err := graph.Dijkstra(g, 0)
	if err != nil {
		return err
	}
	seqTime := time.Since(seqStart)
	fmt.Fprintf(stderr, "sequential Dijkstra: %v\n", seqTime)

	tb := bench.NewTable("impl", "threads", "ms", "speedup_vs_seq", "wasted_pops")
	rep := bench.NewReport("sssp", *seed)
	for _, impl := range splitList(*implsFlag) {
		for _, th := range threads {
			var best time.Duration
			var bestStats graph.SSSPStats
			var top pqadapt.Topology
			for r := 0; r < *reps; r++ {
				q, t, err := newQueue(impl, *queues, *seed+uint64(r))
				if err != nil {
					return err
				}
				start := time.Now()
				dist, st, err := graph.ParallelSSSPBatch(g, 0, q, th, *batch)
				elapsed := time.Since(start)
				if err != nil {
					return err
				}
				if *verify {
					for u := range want {
						if dist[u] != want[u] {
							return fmt.Errorf("sssp: %s at %d threads: distance to node %d is %d, Dijkstra's is %d",
								impl, th, u, dist[u], want[u])
						}
					}
				}
				if best == 0 || elapsed < best {
					best, bestStats, top = elapsed, st, t
				}
			}
			ms := float64(best.Microseconds()) / 1000
			speedup := seqTime.Seconds() / best.Seconds()
			tb.AddRow(impl, th, ms, speedup, bestStats.WastedPops)
			row := bench.Row{
				Impl: impl, Threads: th, Batch: *batch,
				Millis: ms, Speedup: speedup, WastedPops: bestStats.WastedPops,
			}
			row.SetTopology(top)
			rep.Add(row)
			fmt.Fprintf(stderr, "done: %-12s threads=%-3d %v\n", impl, th, best)
		}
	}
	return out.emit(stdout, tb, rep)
}
