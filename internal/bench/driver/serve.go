package driver

import (
	"flag"
	"fmt"
	"io"
	"time"

	"powerchoice/internal/bench"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
	"powerchoice/internal/workload"
)

// runServe measures the open-system job server: Poisson arrivals at a
// target utilization ρ (or an explicit -rate) while the line-up serves —
// or, with -workload, arrivals and services compiled from a declarative
// workload spec (bursty MMPP, on/off, diurnal pacing; heavy-tailed service
// laws). The product is per-class sojourn (wait + service) percentiles at
// fixed load — relaxation read as a latency penalty rather than a
// drain-time delta. The JSON report carries one summary row per
// (impl, threads) — rho, offered rate, inversions, mean queue length, and
// for workload runs the spec name and trace hash — plus one sojourn row per
// class (with the class's offered rate for workload runs).
func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nJobs := fs.Int("jobs", 500_000, "arrivals injected per configuration")
	classes := fs.Int("classes", 8, "priority classes (0 = most urgent)")
	service := fs.Int("service", 256, "mean service time in spin units")
	workloadFlag := fs.String("workload", "", "workload spec: preset name or JSON file (replaces -classes/-service with the spec's classes and service laws)")
	rate := fs.Float64("rate", 0, "arrival rate λ in jobs/second (0 = derive from -rho)")
	rho := fs.Float64("rho", 0.8, "target utilization λ·E[S]/threads (ignored when -rate is set)")
	producers := fs.Int("producers", 1, "arrival goroutines (their Poisson streams superpose to λ)")
	deadline := fs.Duration("deadline", 0, "optional cap on the injection window (0 = none)")
	threadsFlag := fs.String("threads", defaultThreads(), "comma-separated serving worker counts")
	implsFlag := fs.String("impls", allImpls(), "comma-separated implementations")
	queues := fs.Int("queues", 0, "pin the MultiQueue queue count (0 = derive from the host)")
	batch := fs.Int("batch", 0, "executor bulk-operation size k (0/1 = unbatched)")
	elastic := fs.Bool("elastic", false, "arm the sampler-driven resize controller on MultiQueue implementations (grow/shrink the queue count with the sampled backlog)")
	qmin := fs.Int("qmin", 0, "elastic: minimum queue count (0 = the initial count; shrinking disabled)")
	qmax := fs.Int("qmax", 0, "elastic: maximum queue count (0 = the initial count; growing disabled)")
	hiWater := fs.Float64("hiwater", 0, "elastic: mean backlog per queue above which the topology grows (0 = default 8)")
	loWater := fs.Float64("lowater", 0, "elastic: mean backlog per queue below which the topology shrinks (0 = default 1)")
	window := fs.Int("window", 0, "elastic: consecutive out-of-band samples required to trigger a resize (0 = default 3)")
	seed := fs.Uint64("seed", 42, "root random seed")
	var out output
	out.addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	normalizeBatch(batch)
	threads, err := parseInts(*threadsFlag)
	if err != nil {
		return err
	}
	var wspec *workload.Spec
	if *workloadFlag != "" {
		if wspec, err = workload.LoadSpec(*workloadFlag); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "open system: %d arrivals, workload %q (%s arrivals, %d classes)\n",
			*nJobs, wspec.Name, wspec.Arrival.Process, len(wspec.Classes))
	} else {
		fmt.Fprintf(stderr, "open system: %d arrivals, %d classes, mean service %d spin units\n",
			*nJobs, *classes, *service)
	}

	tb := bench.NewTable("impl", "threads", "rho", "class", "jobs",
		"sojourn_p50_ms", "sojourn_p99_ms", "qlen_mean")
	rep := bench.NewReport("serve", *seed)
	for _, impl := range splitList(*implsFlag) {
		for _, th := range threads {
			res, err := bench.Serve(bench.ServeSpec{
				Impl:        pqadapt.Impl(impl),
				Queues:      *queues,
				Jobs:        *nJobs,
				Classes:     *classes,
				ServiceMean: *service,
				Workload:    wspec,
				Rate:        *rate,
				Rho:         *rho,
				Producers:   *producers,
				Threads:     th,
				Batch:       *batch,
				Deadline:    *deadline,
				Elastic: sched.ElasticConfig{
					Enable:    *elastic,
					MinQueues: *qmin,
					MaxQueues: *qmax,
					HighWater: *hiWater,
					LowWater:  *loWater,
					Window:    *window,
				},
				Seed: *seed,
			})
			if err != nil {
				return err
			}
			ms := float64(res.Elapsed.Microseconds()) / 1000
			tb.AddRow(impl, th, fmt.Sprintf("%.3f", res.Rho), "all", res.Injected,
				"", "", fmt.Sprintf("%.1f", res.QLenMean))
			sum := bench.Row{
				Impl: impl, Threads: th, Batch: *batch, Millis: ms,
				Jobs: res.Injected, Inversions: res.Inversions,
				InvWaiting: res.InvWaiting, BufferedPops: res.BufferedPops,
				Rho: res.Rho, Rate: res.OfferedRate, QLenMean: res.QLenMean,
				Workload: res.Workload, TraceHash: res.TraceHash,
				Epochs: res.Epochs, Resizes: res.Resizes, FinalQueues: res.FinalQueues,
			}
			sum.SetTopology(res.Topology)
			rep.Add(sum)
			for _, cs := range res.PerClass {
				cs := cs
				tb.AddRow(impl, th, fmt.Sprintf("%.3f", res.Rho), cs.Class, cs.Jobs,
					cs.P50Ms, cs.P99Ms, "")
				row := bench.Row{
					Impl: impl, Threads: th, Class: &cs.Class, Jobs: cs.Jobs,
					Rho: res.Rho, SojournP50Ms: cs.P50Ms, SojournP99Ms: cs.P99Ms,
					Workload: res.Workload,
				}
				if res.ClassRates != nil {
					row.ClassRate = res.ClassRates[cs.Class]
				}
				row.SetTopology(res.Topology)
				rep.Add(row)
			}
			elasticNote := ""
			if res.FinalQueues > 0 {
				elasticNote = fmt.Sprintf(", elastic: %d resizes -> %d queues", res.Resizes, res.FinalQueues)
			}
			fmt.Fprintf(stderr, "done: %-12s threads=%-3d rho=%.2f %v (%d injected, %d inversions%s)\n",
				impl, th, res.Rho, res.Elapsed.Round(time.Millisecond), res.Injected, res.Inversions, elasticNote)
		}
	}
	return out.emit(stdout, tb, rep)
}
