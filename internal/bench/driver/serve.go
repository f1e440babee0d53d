package driver

import (
	"flag"
	"fmt"
	"io"
	"time"

	"powerchoice/internal/bench"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/workload"
)

// runServe measures the open-system job server: a workload trace, compiled
// from a declarative spec (-workload: a preset or a JSON file; the 4-class
// poisson preset by default) at one arrival rate (-rate), is replayed while
// the line-up serves it. The spec sets the arrival shape (Poisson, bursty
// MMPP, on/off, diurnal) and the per-class service laws (uniform,
// heavy-tailed). The product is per-class sojourn (wait + service)
// percentiles at fixed load — relaxation read as a latency penalty rather
// than a drain-time delta. The JSON report carries one summary row per
// (impl, threads) — rho, offered rate, inversions, the exact mean number of
// jobs in the system, the spec name and the trace hash — plus one sojourn
// row per class, with the class's offered rate.
func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nJobs := fs.Int("jobs", 500_000, "arrivals injected per configuration")
	workloadFlag := fs.String("workload", "poisson", "workload spec: preset name or JSON file")
	rate := fs.Float64("rate", defaultRate, "arrival rate λ in jobs/second")
	producers := fs.Int("producers", 1, "arrival goroutines pacing the trace schedule")
	deadline := fs.Duration("deadline", 0, "optional cap on the injection window (0 = none)")
	threadsFlag := fs.String("threads", defaultThreads(), "comma-separated serving worker counts")
	implsFlag := fs.String("impls", allImpls(), "comma-separated implementations")
	queues := fs.Int("queues", 0, "pin the MultiQueue queue count (0 = derive from the host)")
	batch := fs.Int("batch", 0, "executor bulk-operation size k (0/1 = unbatched)")
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
	wspec, err := workload.LoadSpec(*workloadFlag)
	if err != nil {
		return err
	}
	tr, err := workload.Generate(wspec, *seed, *nJobs, *rate)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "open system: %d arrivals of %q at %.0f jobs/s (%s arrivals, %d classes)\n",
		tr.Jobs(), wspec.Name, tr.Rate, wspec.Arrival.Process, len(wspec.Classes))
	return serveLineup("serve", bench.ServeSpec{
		Queues: *queues, Trace: tr, Producers: *producers,
		Batch: *batch, Deadline: *deadline, Seed: *seed,
	}, splitList(*implsFlag), threads, &out, stdout, stderr)
}

// serveLineup replays spec.Trace on every implementation at every thread
// count and emits, per run, a summary row carrying the trace's hash and one
// sojourn row per class. serve and replay both end here, so one report
// holds one trace under one hash.
func serveLineup(command string, spec bench.ServeSpec, impls []string, threads []int,
	out *output, stdout, stderr io.Writer) error {
	hash, err := spec.Trace.Hash()
	if err != nil {
		return err
	}
	tb := bench.NewTable("impl", "threads", "rho", "class", "jobs",
		"sojourn_p50_ms", "sojourn_p99_ms", "qlen_mean")
	rep := bench.NewReport(command, spec.Seed)
	for _, impl := range impls {
		for _, th := range threads {
			spec.Impl, spec.Threads = pqadapt.Impl(impl), th
			res, err := bench.Serve(spec)
			if err != nil {
				return err
			}
			rho := fmt.Sprintf("%.3f", res.Rho)
			tb.AddRow(impl, th, rho, "all", res.Injected, "", "", fmt.Sprintf("%.1f", res.QLenMean))
			sum := bench.Row{
				Impl: impl, Threads: th, Batch: spec.Batch, Millis: float64(res.Elapsed.Microseconds()) / 1000,
				Jobs: res.Injected, Inversions: res.Inversions,
				InvWaiting: res.InvWaiting, BufferedPops: res.BufferedPops,
				Rho: res.Rho, Rate: res.OfferedRate, QLenMean: res.QLenMean,
				Workload: res.Workload, TraceHash: hash,
			}
			sum.SetTopology(res.Topology)
			rep.Add(sum)
			for _, cs := range res.PerClass {
				tb.AddRow(impl, th, rho, cs.Class, cs.Jobs, cs.P50Ms, cs.P99Ms, "")
				row := bench.Row{
					Impl: impl, Threads: th, Class: &cs.Class, Jobs: cs.Jobs,
					Rho: res.Rho, SojournP50Ms: cs.P50Ms, SojournP99Ms: cs.P99Ms,
					Workload: res.Workload, ClassRate: res.ClassRates[cs.Class],
				}
				row.SetTopology(res.Topology)
				rep.Add(row)
			}
			fmt.Fprintf(stderr, "done: %-12s threads=%-3d rho=%.2f %v (%d injected, %d inversions)\n",
				impl, th, res.Rho, res.Elapsed.Round(time.Millisecond), res.Injected, res.Inversions)
		}
	}
	return out.emit(stdout, tb, rep)
}
