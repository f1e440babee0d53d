package driver

import (
	"flag"
	"fmt"
	"io"

	"powerchoice/internal/bench"
	"powerchoice/internal/jobs"
	"powerchoice/internal/workload"
)

// defaultRate is the arrival rate, in jobs/second, of the trace jobs drains
// and the -rate default of serve and record, so all three generate one
// trace from equal -workload, -jobs and -seed. A drain ignores arrival
// instants, and a trace draws classes and services from streams of their
// own, so the rate moves no drained job. The rate sits inside what one
// worker at one P serves of the poisson preset (qlen_mean under 5 on a
// 2-vCPU x86-64 host), so a bare serve measures a queue that keeps up.
const defaultRate = 100_000

// runJobs drains a workload trace over the line-up: jobs with priority
// classes and service times (-workload: a preset or a JSON file; the
// 4-class poisson preset by default), all waiting from the start, and P
// workers sharing the queue as the scheduler. It reports priority-inversion
// counts and per-class completion latency percentiles — the
// scheduling-quality face of the paper's rank bound. The JSON report
// carries one summary row per (impl, threads), with the spec name, plus
// one row per priority class.
func runJobs(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench jobs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nJobs := fs.Int("jobs", 1_000_000, "jobs drained per configuration")
	workloadFlag := fs.String("workload", "poisson", "workload spec: preset name or JSON file")
	threadsFlag := fs.String("threads", defaultThreads(), "comma-separated thread counts")
	implsFlag := fs.String("impls", allImpls(), "comma-separated implementations")
	queues := fs.Int("queues", 0, "pin the MultiQueue queue count (0 = derive from the host)")
	batch := fs.Int("batch", 0, "executor bulk-operation size k (0/1 = unbatched; adds bounded priority-inversion slack)")
	seed := fs.Uint64("seed", 42, "root random seed")
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
	wspec, err := workload.LoadSpec(*workloadFlag)
	if err != nil {
		return err
	}
	tr, err := workload.Generate(wspec, *seed, *nJobs, defaultRate)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "job server: %d jobs, workload %q (%d classes)\n",
		*nJobs, wspec.Name, len(wspec.Classes))

	tb := bench.NewTable("impl", "threads", "class", "jobs", "p50_ms", "p99_ms", "inversions")
	rep := bench.NewReport("jobs", *seed)
	for _, impl := range splitList(*implsFlag) {
		for _, th := range threads {
			q, top, err := newQueue(impl, *queues, *seed)
			if err != nil {
				return err
			}
			res, err := jobs.Run(tr, q, th, *batch)
			if err != nil {
				return err
			}
			ms := float64(res.Elapsed.Microseconds()) / 1000
			mjobs := float64(tr.Jobs()) / res.Elapsed.Seconds() / 1e6
			tb.AddRow(impl, th, "all", *nJobs, "", "", res.Inversions)
			sum := bench.Row{
				Impl: impl, Threads: th, Batch: *batch, Millis: ms, MJobs: mjobs,
				Jobs: int64(*nJobs), Inversions: res.Inversions, InvWaiting: res.InvWaiting,
				BufferedPops: res.Stats.BufferedPops, Workload: wspec.Name,
			}
			sum.SetTopology(top)
			rep.Add(sum)
			for _, cs := range res.PerClass {
				cs := cs
				tb.AddRow(impl, th, cs.Class, cs.Jobs, cs.P50Ms, cs.P99Ms, "")
				row := bench.Row{
					Impl: impl, Threads: th, Class: &cs.Class,
					Jobs: cs.Jobs, P50Ms: cs.P50Ms, P99Ms: cs.P99Ms,
				}
				row.SetTopology(top)
				rep.Add(row)
			}
			fmt.Fprintf(stderr, "done: %-12s threads=%-3d %v (%d inversions)\n",
				impl, th, res.Elapsed, res.Inversions)
		}
	}
	return out.emit(stdout, tb, rep)
}
