package driver

import (
	"flag"
	"fmt"
	"io"
	"sort"

	"powerchoice/internal/bench"
	"powerchoice/internal/pqadapt"
)

// runRank measures the rank quality of named line-up implementations at the
// paper's fixed topology — the quality counterpart of Figure 1's throughput
// column.
func runRank(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench rank", flag.ContinueOnError)
	fs.SetOutput(stderr)
	implsFlag := fs.String("impls", allImpls(), "comma-separated implementations")
	queues := fs.Int("queues", 0, "MultiQueue queue count (0 = the paper's fixed 8)")
	threads := fs.Int("threads", 8, "concurrent worker count (paper: 8)")
	prefill := fs.Int("prefill", 1<<18, "initially inserted labels")
	ops := fs.Int("ops", 1<<15, "delete+insert pairs per thread")
	batch := fs.Int("batch", 0, "bulk-deletion size k (0/1 = single-op; ranks include the buffering slack)")
	seed := fs.Uint64("seed", 42, "root random seed")
	reps := fs.Int("reps", 3, "repetitions per configuration; the median-by-mean run is reported")
	hist := fs.Bool("hist", false, "also print a rank histogram per implementation")
	var out output
	out.addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	normalizeBatch(batch)
	tb := bench.NewTable("impl", "mean_rank", "p50", "p99", "max", "removals")
	rep := bench.NewReport("rank", *seed)
	for _, impl := range splitList(*implsFlag) {
		res, err := medianRun(bench.RankSpec{
			Impl:         pqadapt.Impl(impl),
			Queues:       *queues,
			Threads:      *threads,
			Prefill:      *prefill,
			OpsPerThread: *ops,
			Batch:        *batch,
			Seed:         *seed,
		}, *reps)
		if err != nil {
			return err
		}
		tb.AddRow(impl, res.Mean, res.P50, res.P99, res.Max, res.Removals)
		row := bench.Row{
			Impl: impl, Threads: *threads, Batch: *batch,
			MeanRank: res.Mean, P50: res.P50, P99: res.P99,
			MaxRank: res.Max, Removals: res.Removals,
		}
		row.SetTopology(res.Topology)
		rep.Add(row)
		fmt.Fprintf(stderr, "done: %-12s mean rank %.2f\n", impl, res.Mean)
		if *hist {
			fmt.Fprintf(stderr, "rank histogram for %s:\n%s\n", impl, res.Hist)
		}
	}
	return out.emit(stdout, tb, rep)
}

// medianRun repeats a measurement and returns the median run by mean rank,
// suppressing one-off scheduler-stall bursts (this environment has no
// thread pinning; see EXPERIMENTS.md).
func medianRun(spec bench.RankSpec, reps int) (bench.RankResult, error) {
	if reps < 1 {
		reps = 1
	}
	results := make([]bench.RankResult, 0, reps)
	for r := 0; r < reps; r++ {
		s := spec
		s.Seed += uint64(r)
		res, err := bench.RankQuality(s)
		if err != nil {
			return bench.RankResult{}, err
		}
		results = append(results, res)
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Mean < results[j].Mean })
	return results[len(results)/2], nil
}
