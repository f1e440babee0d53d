package driver

import (
	"flag"
	"fmt"
	"io"

	"powerchoice/internal/bench"
)

// runSweep regenerates Figure 2: the mean rank of removed elements for the
// (1+β) MultiQueue, swept over β at a fixed queue and thread count (the
// paper uses 8 queues and 8 threads; the y axis is logarithmic, so ratios
// are what matters).
func runSweep(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	betaFlag := fs.String("beta", "0,0.125,0.25,0.375,0.5,0.625,0.75,0.875,1", "comma-separated β values")
	queues := fs.Int("queues", 8, "number of internal queues (paper: 8)")
	threads := fs.Int("threads", 8, "concurrent worker count (paper: 8)")
	prefill := fs.Int("prefill", 1<<18, "initially inserted labels")
	ops := fs.Int("ops", 1<<15, "delete+insert pairs per thread")
	batch := fs.Int("batch", 0, "bulk-deletion size k (0/1 = single-op; ranks include the (k-1)*threads buffering slack)")
	seed := fs.Uint64("seed", 42, "root random seed")
	reps := fs.Int("reps", 3, "repetitions per configuration; the median-by-mean run is reported")
	hist := fs.Bool("hist", false, "also print a rank histogram per β")
	var out output
	out.addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	normalizeBatch(batch)
	betas, err := parseFloats(*betaFlag)
	if err != nil {
		return err
	}
	tb := bench.NewTable("beta", "mean_rank", "p50", "p99", "max", "removals")
	rep := bench.NewReport("sweep", *seed)
	for _, beta := range betas {
		res, err := medianRun(bench.RankSpec{
			Beta:         beta,
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
		tb.AddRow(beta, res.Mean, res.P50, res.P99, res.Max, res.Removals)
		row := bench.Row{
			Threads: *threads, Batch: *batch,
			MeanRank: res.Mean, P50: res.P50, P99: res.P99,
			MaxRank: res.Max, Removals: res.Removals,
		}
		row.SetTopology(res.Topology)
		rep.Add(row)
		fmt.Fprintf(stderr, "done: β=%-6v mean rank %.2f\n", beta, res.Mean)
		if *hist {
			fmt.Fprintf(stderr, "rank histogram for β=%v:\n%s\n", beta, res.Hist)
		}
	}
	return out.emit(stdout, tb, rep)
}
