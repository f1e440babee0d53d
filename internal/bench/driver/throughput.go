package driver

import (
	"flag"
	"fmt"
	"io"
	"time"

	"powerchoice/internal/bench"
	"powerchoice/internal/pqadapt"
)

// runThroughput regenerates Figure 1: throughput of the line-up over a
// thread sweep on an alternating insert/deleteMin workload.
func runThroughput(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench throughput", flag.ContinueOnError)
	fs.SetOutput(stderr)
	duration := fs.Duration("duration", 2*time.Second, "measurement time per configuration")
	prefill := fs.Int("prefill", 1_000_000, "elements inserted before timing (paper: 10M)")
	threadsFlag := fs.String("threads", defaultThreads(), "comma-separated thread counts")
	implsFlag := fs.String("impls", allImpls(), "comma-separated implementations")
	queues := fs.Int("queues", 0, "pin the MultiQueue queue count (0 = derive from the host)")
	batch := fs.Int("batch", 0, "bulk-operation size k (0/1 = single-op loop; k elements move per lock acquisition)")
	seed := fs.Uint64("seed", 42, "root random seed")
	reps := fs.Int("reps", 3, "repetitions per configuration (best run reported)")
	var out output
	out.addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	normalizeBatch(batch)
	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		return err
	}
	if *reps < 1 {
		*reps = 1
	}
	tb := bench.NewTable("impl", "threads", "batch", "mops", "ops", "empty_pops", "buffered_pops", "lock_fails")
	rep := bench.NewReport("throughput", *seed)
	for _, impl := range splitList(*implsFlag) {
		for _, th := range threads {
			var best bench.ThroughputResult
			for r := 0; r < *reps; r++ {
				one, err := bench.Throughput(bench.ThroughputSpec{
					Impl:     pqadapt.Impl(impl),
					Queues:   *queues,
					Threads:  th,
					Duration: *duration,
					Prefill:  *prefill,
					Batch:    *batch,
					Seed:     *seed + uint64(r),
				})
				if err != nil {
					return err
				}
				if one.MOps > best.MOps {
					best = one
				}
			}
			tb.AddRow(impl, th, *batch, best.MOps, best.Ops, best.EmptyPops,
				best.BufferedPops, best.LockFails)
			row := bench.Row{
				Impl: impl, Threads: th, Batch: *batch,
				MOps: best.MOps, Ops: best.Ops, EmptyPops: best.EmptyPops,
				BufferedPops: best.BufferedPops,
				LockFails:    best.LockFails,
			}
			row.SetTopology(best.Topology)
			rep.Add(row)
			fmt.Fprintf(stderr, "done: %-12s threads=%-3d %.3f Mops/s\n", impl, th, best.MOps)
		}
	}
	return out.emit(stdout, tb, rep)
}
