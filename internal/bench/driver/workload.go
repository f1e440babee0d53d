package driver

// The workload-subsystem subcommands: record compiles a declarative spec
// into a replayable trace artifact, replay re-runs a recorded trace through
// any queue implementation (the record→replay pair is the determinism
// contract CI pins), and calibrate prints the host's spin-unit cost — the
// constant every ρ↔λ conversion and cross-host comparison hinges on.

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"powerchoice/internal/bench"
	"powerchoice/internal/jobs"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/workload"
)

// runRecord compiles a workload spec into a deterministic trace file. The
// trace is a pure function of (spec, seed, jobs, rate): recording twice with
// equal flags yields byte-identical artifacts, and the printed hash is the
// identity replay verifies.
func runRecord(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "poisson", "workload spec: preset name or JSON file")
	nJobs := fs.Int("jobs", 500_000, "arrivals in the trace")
	rate := fs.Float64("rate", 0, "arrival rate λ in jobs/second (0 = derive from -rho and -threads)")
	rho := fs.Float64("rho", 0.8, "target utilization the derived rate assumes (ignored when -rate is set); the rate comes from this process's spin calibration, so two -rho runs record different traces")
	threadsFlag := fs.Int("threads", runtime.GOMAXPROCS(0), "worker count the -rho derivation assumes")
	traceOut := fs.String("trace", "", "trace file to write (required)")
	seed := fs.Uint64("seed", 42, "root random seed")
	var out output
	out.addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceOut == "" {
		return fmt.Errorf("record: -trace FILE is required")
	}
	wspec, err := workload.LoadSpec(*workloadFlag)
	if err != nil {
		return err
	}
	spec := bench.ServeSpec{
		Workload: wspec, Jobs: *nJobs, Rate: *rate, Rho: *rho,
		Threads: *threadsFlag, Seed: *seed,
	}
	tr, err := spec.ResolveTrace()
	if err != nil {
		return err
	}
	if err := workload.WriteTraceFile(*traceOut, tr); err != nil {
		return err
	}
	hash, err := tr.Hash()
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "recorded %d arrivals of %q at %.0f jobs/s to %s\n",
		tr.Jobs(), wspec.Name, tr.Rate, *traceOut)

	tb := bench.NewTable("workload", "jobs", "rate", "classes", "trace_hash")
	tb.AddRow(wspec.Name, tr.Jobs(), fmt.Sprintf("%.0f", tr.Rate), tr.NumClasses(), hash)
	rep := bench.NewReport("record", *seed)
	rep.Add(bench.Row{
		Workload: wspec.Name, TraceHash: hash,
		Jobs: int64(tr.Jobs()), Rate: tr.Rate,
	})
	return out.emit(stdout, tb, rep)
}

// runReplay re-runs a recorded trace through the chosen implementations:
// the identical job multiset on the identical arrival schedule, so
// differences between rows are the queues' doing, not the workload's. The
// summary rows carry the trace hash; comparing it against the record run's
// hash (and the per-class job counts, which are properties of the trace) is
// the determinism check.
func runReplay(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tracePath := fs.String("trace", "", "trace file to replay (required)")
	scaleRate := fs.Float64("scale-rate", 0, "replay the trace with arrivals compressed/stretched by this factor (>1 = higher load; 0 = off)")
	thin := fs.Float64("thin", 0, "replay a deterministic subsample keeping each job with this probability (0 = off)")
	producers := fs.Int("producers", 1, "arrival goroutines pacing the trace schedule")
	threadsFlag := fs.String("threads", defaultThreads(), "comma-separated serving worker counts")
	implsFlag := fs.String("impls", allImpls(), "comma-separated implementations")
	queues := fs.Int("queues", 0, "pin the MultiQueue queue count (0 = derive from the host)")
	batch := fs.Int("batch", 0, "executor bulk-operation size k (0/1 = unbatched)")
	seed := fs.Uint64("seed", 42, "root random seed (queue internals; the workload comes from the trace)")
	var out output
	out.addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("replay: -trace FILE is required")
	}
	normalizeBatch(batch)
	threads, err := parseInts(*threadsFlag)
	if err != nil {
		return err
	}
	tr, err := workload.ReadTraceFile(*tracePath)
	if err != nil {
		return err
	}
	// Transform order: thin first, then scale — thinning draws one coin per
	// original job (so subsamples of the same trace nest regardless of the
	// scale), and scaling the survivors' schedule preserves that identity.
	if *thin > 0 {
		if tr, err = tr.Thin(*thin); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "thinned to %d arrivals (p=%.3g)\n", tr.Jobs(), *thin)
	}
	if *scaleRate > 0 {
		if tr, err = tr.ScaleRate(*scaleRate); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "rate scaled by %.3g to %.0f jobs/s\n", *scaleRate, tr.Rate)
	}
	hash, err := tr.Hash()
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "replaying %d arrivals of %q at %.0f jobs/s\n",
		tr.Jobs(), tr.Spec.Name, tr.Rate)

	tb := bench.NewTable("impl", "threads", "rho", "class", "jobs",
		"sojourn_p50_ms", "sojourn_p99_ms", "qlen_mean")
	rep := bench.NewReport("replay", *seed)
	for _, impl := range splitList(*implsFlag) {
		for _, th := range threads {
			res, err := bench.Serve(bench.ServeSpec{
				Impl:      pqadapt.Impl(impl),
				Queues:    *queues,
				Trace:     tr,
				Producers: *producers,
				Threads:   th,
				Batch:     *batch,
				Seed:      *seed,
			})
			if err != nil {
				return err
			}
			addServeRows(tb, rep, impl, th, *batch, hash, res)
			fmt.Fprintf(stderr, "done: %-12s threads=%-3d rho=%.2f %v (%d injected)\n",
				impl, th, res.Rho, res.Elapsed.Round(time.Millisecond), res.Injected)
		}
	}
	return out.emit(stdout, tb, rep)
}

// runCalibrate measures and prints the host's spin-unit cost — the
// SpinNsPerUnit constant that converts simulated service times to wall time
// in every ρ↔λ derivation. Rates, rho targets and sojourn milliseconds are
// only comparable across hosts after checking this number (EXPERIMENTS.md).
func runCalibrate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench calibrate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 42, "root random seed (recorded in the report; calibration itself is deterministic)")
	var out output
	out.addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ns := jobs.SpinNsPerUnit()
	host := bench.CurrentHost()
	tb := bench.NewTable("spin_ns_per_unit", "gomaxprocs", "num_cpu", "go_version", "os", "arch")
	tb.AddRow(fmt.Sprintf("%.4f", ns), host.GOMAXPROCS, host.NumCPU, host.GoVersion, host.OS, host.Arch)
	rep := bench.NewReport("calibrate", *seed)
	rep.Add(bench.Row{SpinNsPerUnit: ns})
	fmt.Fprintf(stderr, "one spin unit costs %.4fns on this host (mean service 256 units ≈ %.2fµs)\n",
		ns, ns*256/1000)
	return out.emit(stdout, tb, rep)
}
