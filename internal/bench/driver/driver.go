// Package driver implements the powerbench command line: one portable
// benchmark driver whose subcommands (usageText lists them) emit aligned
// tables or machine-readable JSON reports (see bench.Report) from the same
// measured results. The serve, jobs and sssp subcommands call the runners
// they measure (jobs.RunOpen, jobs.Run, graph.ParallelSSSPBatch) directly
// and read their results into report rows.
package driver

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"powerchoice/internal/bench"
	"powerchoice/internal/pqadapt"
)

const usageText = `powerbench — portable benchmark driver for the (1+β) MultiQueue repository

Usage:

  powerbench <subcommand> [flags]

Subcommands:

  throughput   insert/deleteMin throughput over a thread sweep (Figure 1)
  rank         rank quality of named implementations at a fixed topology
  sweep        rank quality of the (1+β) MultiQueue swept over β (Figure 2)
  sssp         parallel single-source shortest paths timing (Figure 3)
  jobs         priority job-server drain of a workload trace (-workload,
               default poisson): inversions + per-class latency
  serve        open-system job server: one workload trace at one arrival
               rate (-rate, default 100000 jobs/s), or a recorded trace
               (-trace FILE); per-class sojourn p50/p99, mean number in
               system, achieved rate and the host's spin-unit cost
               (-workload picks the spec, default the 4-class poisson
               preset: bursty/onoff/diurnal arrivals, heavy-tailed
               service laws)
  record       compile a workload spec into a trace file for serve -trace
  help         print this message

Every subcommand accepts -json (a JSON report on stdout instead of the
aligned table) and -out FILE (write the JSON report to FILE while
keeping the table on stdout). JSON reports carry host metadata —
GOMAXPROCS, CPU count, Go version — and the resolved topology (queues,
choices, β) of every MultiQueue measurement, so results stay
interpretable across machines.

Run 'powerbench <subcommand> -h' for the subcommand's flags.
`

// subcommands maps each subcommand usageText lists to its runner.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"throughput": runThroughput,
	"rank":       runRank,
	"sweep":      runSweep,
	"sssp":       runSSSP,
	"jobs":       runJobs,
	"serve":      runServe,
	"record":     runRecord,
}

// Main dispatches a powerbench invocation. args excludes the binary name.
func Main(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return fmt.Errorf("no subcommand")
	}
	sub, rest := args[0], args[1:]
	if run, ok := subcommands[sub]; ok {
		return run(rest, stdout, stderr)
	}
	switch sub {
	case "help", "-h", "--help":
		fmt.Fprint(stdout, usageText)
		return nil
	default:
		fmt.Fprint(stderr, usageText)
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

// output selects where results go: stdout gets the table or the JSON
// report; -out additionally persists the JSON report to a file so a table
// run can append to the BENCH_*.json trajectory in the same invocation.
type output struct {
	json    bool
	outFile string
}

func (o *output) addFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.json, "json", false, "emit a JSON report instead of the table")
	fs.StringVar(&o.outFile, "out", "", "also write the JSON report to this file")
}

// emit renders the same results as a table or JSON per the output flags.
func (o *output) emit(stdout io.Writer, tb *bench.Table, rep *bench.Report) error {
	if o.outFile != "" {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.outFile, b, 0o644); err != nil {
			return err
		}
	}
	if o.json {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	}
	_, err := io.WriteString(stdout, tb.String())
	return err
}

// defaultThreads sweeps 1..GOMAXPROCS in powers of two.
func defaultThreads() string {
	max := runtime.GOMAXPROCS(0)
	var parts []string
	for t := 1; t <= max; t *= 2 {
		parts = append(parts, strconv.Itoa(t))
	}
	return strings.Join(parts, ",")
}

// allImpls lists the full line-up as a flag default.
func allImpls() string {
	var parts []string
	for _, i := range pqadapt.Impls() {
		parts = append(parts, string(i))
	}
	return strings.Join(parts, ",")
}

// newQueue builds impl's queue at the given queue count (0 = derived from
// the host) and seed, and reports the topology it resolved to for the
// measurement's rows.
func newQueue(impl string, queues int, seed uint64) (pqadapt.Queue, pqadapt.Topology, error) {
	q, err := pqadapt.NewSpec(pqadapt.Spec{Impl: pqadapt.Impl(impl), Queues: queues, Seed: seed})
	if err != nil {
		return nil, pqadapt.Topology{}, err
	}
	return q, pqadapt.TopologyOf(pqadapt.Impl(impl), q), nil
}

// normalizeBatch canonicalises a -batch flag value: batch ≤ 1 IS the
// classic single-op loop (sched.RunConfig and every batch path treat them
// identically), so it is recorded as 0 — absent in JSON — keeping such rows
// comparable with the pre-batch BENCH_*.json history per the convention in
// EXPERIMENTS.md.
func normalizeBatch(batch *int) {
	if *batch <= 1 {
		*batch = 0
	}
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseThreads parses a -threads list of worker counts, each at least 1.
func parseThreads(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", p, err)
		}
		if v < 1 {
			return nil, fmt.Errorf("thread count %d < 1", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no values in %q", s)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %w", p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no values in %q", s)
	}
	return out, nil
}
