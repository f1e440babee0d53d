package driver

import (
	"flag"
	"fmt"
	"io"

	"powerchoice/internal/bench"
	"powerchoice/internal/workload"
)

// runRecord compiles a workload spec into a deterministic trace file, which
// serve -trace replays through any queue implementation. The trace is a
// pure function of (spec, seed, jobs, rate): recording twice with equal
// flags yields byte-identical artifacts, and the printed hash is the
// identity every serve -trace run of the file reports back — the
// record→replay determinism contract CI pins.
func runRecord(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "poisson", "workload spec: preset name or JSON file")
	nJobs := fs.Int("jobs", 500_000, "arrivals in the trace")
	rate := fs.Float64("rate", defaultRate, "arrival rate λ in jobs/second")
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
	tr, err := workload.Generate(wspec, *seed, *nJobs, *rate)
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
