// Command powerbench is the repository's unified, machine-portable
// benchmark driver. Its seven subcommands regenerate the paper's figures
// (throughput, sweep, sssp), measure rank quality (rank) and the line-up
// as a scheduler (jobs, serve), and record workload traces for serve
// -trace (record); run 'powerbench help' for the list. Every subcommand
// emits an aligned table or a JSON report (-json, or -out FILE alongside
// the table) that carries host metadata and the resolved topology of
// every measurement. See EXPERIMENTS.md for how each subcommand maps to
// the paper (§5).
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
