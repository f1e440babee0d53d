// Package driver implements the powerbench command line: one portable
// benchmark driver with throughput, rank, sweep, sssp, astar, jobs, serve,
// record, replay and calibrate subcommands, emitting aligned tables,
// CSV, or machine-readable JSON reports (see bench.Report) from the same
// measured results. (The legacy mqbench, rankbench and ssspbench wrappers
// forwarded here until their removal; invoke powerbench directly.)
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
  astar        parallel A* on an implicit obstacle grid (non-monotone keys)
  jobs         priority job-server drain of a workload trace (-workload,
               default poisson): inversions + per-class latency
  serve        open-system job server: a workload trace at target utilization
               rho, per-class sojourn p50/p99 + mean number in system
               (-workload picks the spec, default the 4-class poisson
               preset: bursty/onoff/diurnal arrivals, heavy-tailed service
               laws)
  record       compile a workload spec into a replayable trace file
  replay       re-run a recorded trace through any implementation line-up
  calibrate    print the host's spin-unit cost (the rho <-> rate constant)
  help         print this message

Every subcommand accepts -csv (CSV instead of an aligned table), -json
(a JSON report on stdout instead of the table) and -out FILE (write the
JSON report to FILE while keeping the table on stdout). JSON reports
carry host metadata — GOMAXPROCS, CPU count, Go version — and the
resolved topology (queues, choices, β) of every MultiQueue measurement,
so results stay interpretable across machines.

Run 'powerbench <subcommand> -h' for the subcommand's flags.
`

// Main dispatches a powerbench invocation. args excludes the binary name.
func Main(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return fmt.Errorf("no subcommand")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "throughput":
		return runThroughput(rest, stdout, stderr)
	case "rank":
		return runRank(rest, stdout, stderr)
	case "sweep":
		return runSweep(rest, stdout, stderr)
	case "sssp":
		return runSSSP(rest, stdout, stderr)
	case "astar":
		return runAStar(rest, stdout, stderr)
	case "jobs":
		return runJobs(rest, stdout, stderr)
	case "serve":
		return runServe(rest, stdout, stderr)
	case "record":
		return runRecord(rest, stdout, stderr)
	case "replay":
		return runReplay(rest, stdout, stderr)
	case "calibrate":
		return runCalibrate(rest, stdout, stderr)
	case "help", "-h", "--help":
		fmt.Fprint(stdout, usageText)
		return nil
	default:
		fmt.Fprint(stderr, usageText)
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

// output selects where results go: stdout gets the table, CSV, or the JSON
// report; -out additionally persists the JSON report to a file so a table
// run can append to the BENCH_*.json trajectory in the same invocation.
type output struct {
	csv     bool
	json    bool
	outFile string
}

func (o *output) addFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of an aligned table")
	fs.BoolVar(&o.json, "json", false, "emit a JSON report instead of the table")
	fs.StringVar(&o.outFile, "out", "", "also write the JSON report to this file")
}

// emit renders the same results as table/CSV/JSON per the output flags.
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
	switch {
	case o.json:
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	case o.csv:
		_, err := io.WriteString(stdout, tb.CSV())
		return err
	default:
		_, err := io.WriteString(stdout, tb.String())
		return err
	}
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

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", p, err)
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
