// Command powerbench is the repository's unified, machine-portable
// benchmark driver. It regenerates the paper's figures as subcommands —
//
//	powerbench throughput   Figure 1: throughput over a thread sweep
//	powerbench rank         rank quality of the line-up at the paper's n=8
//	powerbench sweep        Figure 2: (1+β) MultiQueue rank vs β
//	powerbench sssp         Figure 3: parallel SSSP timing
//	powerbench astar        parallel A* on implicit obstacle grids
//	powerbench jobs         closed-system priority job-server drain
//	powerbench serve        open-system job server: sojourn latency of a
//	                        workload trace at a target utilization ρ
//
// — and emits aligned tables, CSV (-csv), or JSON reports (-json, or -out
// FILE alongside the table) that carry host metadata and the resolved
// topology of every measurement, for the BENCH_*.json perf trajectory.
// See EXPERIMENTS.md for how each subcommand maps to the paper (§5).
package main

import (
	"fmt"
	"os"

	"powerchoice/internal/bench/driver"
)

func main() {
	if err := driver.Main(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "powerbench:", err)
		os.Exit(1)
	}
}
