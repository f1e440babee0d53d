package driver

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"powerchoice/internal/bench"
	"powerchoice/internal/jobs"
	"powerchoice/internal/workload"
)

// runServe measures the open-system job server: one workload trace is
// replayed on every implementation at every thread count, so one report
// holds one trace under one hash. The trace is either compiled from a
// declarative spec (-workload: a preset or a JSON file; the 4-class
// poisson preset by default) at one arrival rate (-rate), or read from a
// file record wrote (-trace), whose header fixes the spec, the job count
// and the rate. The spec sets the arrival shape (Poisson, bursty MMPP,
// on/off, diurnal) and the per-class service laws (uniform, heavy-tailed).
// The product is per-class sojourn (wait + service) percentiles at fixed
// load — relaxation read as a latency penalty rather than a drain-time
// delta. The JSON report carries one summary row per (impl, threads) —
// rho, offered and achieved rate, inversions, the pooled sojourn
// percentiles, the exact mean number of jobs in the system, the host's
// spin-unit cost, the spec name and the trace hash — plus one sojourn row
// per class, with the class's offered rate.
func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nJobs := fs.Int("jobs", 500_000, "arrivals injected per configuration")
	workloadFlag := fs.String("workload", "poisson", "workload spec: preset name or JSON file")
	rate := fs.Float64("rate", defaultRate, "arrival rate λ in jobs/second")
	tracePath := fs.String("trace", "", "replay this recorded trace file instead of generating one (excludes -workload, -jobs and -rate)")
	producers := fs.Int("producers", 1, "arrival goroutines pacing the trace schedule")
	deadline := fs.Duration("deadline", 0, "optional cap on the injection window (0 = none)")
	threadsFlag := fs.String("threads", defaultThreads(), "comma-separated serving worker counts")
	implsFlag := fs.String("impls", allImpls(), "comma-separated implementations")
	queues := fs.Int("queues", 0, "pin the MultiQueue queue count (0 = derive from the host)")
	batch := fs.Int("batch", 0, "executor bulk-operation size k (0/1 = unbatched)")
	seed := fs.Uint64("seed", 42, "root random seed (the queues, and the trace unless -trace is given)")
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
	var tr *workload.Trace
	if *tracePath != "" {
		var clash []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "workload" || f.Name == "jobs" || f.Name == "rate" {
				clash = append(clash, "-"+f.Name)
			}
		})
		if len(clash) > 0 {
			return fmt.Errorf("serve: -trace fixes the workload, job count and rate; drop %s", strings.Join(clash, ", "))
		}
		if tr, err = workload.ReadTraceFile(*tracePath); err != nil {
			return err
		}
	} else {
		wspec, err := workload.LoadSpec(*workloadFlag)
		if err != nil {
			return err
		}
		if tr, err = workload.Generate(wspec, *seed, *nJobs, *rate); err != nil {
			return err
		}
	}
	hash, err := tr.Hash()
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "open system: %d arrivals of %q at %.0f jobs/s (%s arrivals, %d classes)\n",
		tr.Jobs(), tr.Spec.Name, tr.Rate, tr.Spec.Arrival.Process, tr.NumClasses())

	shares := tr.Spec.ClassShares()
	tb := bench.NewTable("impl", "threads", "rho", "class", "jobs",
		"sojourn_p50_ms", "sojourn_p99_ms", "qlen_mean")
	rep := bench.NewReport("serve", *seed)
	for _, impl := range splitList(*implsFlag) {
		for _, th := range threads {
			q, top, err := newQueue(impl, *queues, *seed)
			if err != nil {
				return err
			}
			res, err := jobs.RunOpen(jobs.OpenSpec{
				Workload: tr, Producers: *producers, Deadline: *deadline,
			}, q, th, *batch)
			if err != nil {
				return err
			}
			rho := fmt.Sprintf("%.3f", res.Rho)
			tb.AddRow(impl, th, rho, "all", res.Injected, res.SojournP50Ms, res.SojournP99Ms,
				fmt.Sprintf("%.1f", res.QLenMean))
			sum := bench.Row{
				Impl: impl, Threads: th, Batch: *batch, Millis: float64(res.Elapsed.Microseconds()) / 1000,
				Jobs: res.Injected, Inversions: res.Inversions,
				InvWaiting: res.InvWaiting, BufferedPops: res.Stats.BufferedPops,
				Rho: res.Rho, Rate: res.OfferedRate, AchievedRate: res.AchievedRate,
				SojournP50Ms: res.SojournP50Ms, SojournP99Ms: res.SojournP99Ms,
				QLenMean: res.QLenMean, Workload: tr.Spec.Name, TraceHash: hash,
				SpinNsPerUnit: res.SpinNsPerUnit,
			}
			sum.SetTopology(top)
			rep.Add(sum)
			for _, cs := range res.PerClass {
				tb.AddRow(impl, th, rho, cs.Class, cs.Jobs, cs.P50Ms, cs.P99Ms, "")
				row := bench.Row{
					Impl: impl, Threads: th, Class: &cs.Class, Jobs: cs.Jobs,
					Rho: res.Rho, SojournP50Ms: cs.P50Ms, SojournP99Ms: cs.P99Ms,
					Workload: tr.Spec.Name, ClassRate: res.OfferedRate * shares[cs.Class],
				}
				row.SetTopology(top)
				rep.Add(row)
			}
			fmt.Fprintf(stderr, "done: %-12s threads=%-3d rho=%.2f %v (%d injected, %d inversions)\n",
				impl, th, res.Rho, res.Elapsed.Round(time.Millisecond), res.Injected, res.Inversions)
		}
	}
	return out.emit(stdout, tb, rep)
}
