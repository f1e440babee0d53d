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
// poisson preset by default) at a target utilization ρ or an explicit
// -rate, is replayed while the line-up serves it. The spec sets the arrival
// shape (Poisson, bursty MMPP, on/off, diurnal) and the per-class service
// laws (uniform, heavy-tailed). The product is per-class sojourn (wait +
// service) percentiles at fixed load — relaxation read as a latency penalty
// rather than a drain-time delta. The JSON report carries one summary row
// per (impl, threads) — rho, offered rate, inversions, the exact mean
// number of jobs in the system, the spec name and the trace hash — plus
// one sojourn row per class, with the class's offered rate.
func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nJobs := fs.Int("jobs", 500_000, "arrivals injected per configuration")
	workloadFlag := fs.String("workload", "poisson", "workload spec: preset name or JSON file")
	rate := fs.Float64("rate", 0, "arrival rate λ in jobs/second (0 = derive from -rho)")
	rho := fs.Float64("rho", 0.8, "target utilization λ·E[S]/threads (ignored when -rate is set); its rate comes from this process's spin calibration, so two -rho runs generate different traces")
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
	fmt.Fprintf(stderr, "open system: %d arrivals, workload %q (%s arrivals, %d classes)\n",
		*nJobs, wspec.Name, wspec.Arrival.Process, len(wspec.Classes))

	// A trace depends on the thread count (a -rho target scales the rate
	// with it) but not on the implementation, so each thread count's trace
	// is generated and hashed once and replayed on every implementation.
	traces := make([]*workload.Trace, len(threads))
	hashes := make([]string, len(threads))
	for i, th := range threads {
		spec := bench.ServeSpec{
			Workload: wspec, Jobs: *nJobs, Rate: *rate, Rho: *rho,
			Threads: th, Seed: *seed,
		}
		if traces[i], err = spec.ResolveTrace(); err != nil {
			return err
		}
		if hashes[i], err = traces[i].Hash(); err != nil {
			return err
		}
	}

	tb := bench.NewTable("impl", "threads", "rho", "class", "jobs",
		"sojourn_p50_ms", "sojourn_p99_ms", "qlen_mean")
	rep := bench.NewReport("serve", *seed)
	for _, impl := range splitList(*implsFlag) {
		for i, th := range threads {
			res, err := bench.Serve(bench.ServeSpec{
				Impl:      pqadapt.Impl(impl),
				Queues:    *queues,
				Trace:     traces[i],
				Producers: *producers,
				Threads:   th,
				Batch:     *batch,
				Deadline:  *deadline,
				Seed:      *seed,
			})
			if err != nil {
				return err
			}
			addServeRows(tb, rep, impl, th, *batch, hashes[i], res)
			fmt.Fprintf(stderr, "done: %-12s threads=%-3d rho=%.2f %v (%d injected, %d inversions)\n",
				impl, th, res.Rho, res.Elapsed.Round(time.Millisecond), res.Injected, res.Inversions)
		}
	}
	return out.emit(stdout, tb, rep)
}

// addServeRows adds one serve or replay measurement of the trace with the
// given hash to the table and the report: a summary row, then one sojourn
// row per class.
func addServeRows(tb *bench.Table, rep *bench.Report, impl string, th, batch int, hash string, res bench.ServeResult) {
	rho := fmt.Sprintf("%.3f", res.Rho)
	tb.AddRow(impl, th, rho, "all", res.Injected, "", "", fmt.Sprintf("%.1f", res.QLenMean))
	sum := bench.Row{
		Impl: impl, Threads: th, Batch: batch, Millis: float64(res.Elapsed.Microseconds()) / 1000,
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
}
