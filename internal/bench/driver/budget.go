package driver

import (
	"flag"
	"fmt"
	"io"

	"powerchoice/internal/bench"
)

// runBudget decomposes the steady-state Mixed pair (one Insert + one
// DeleteMin) into a ns/op budget — sample (itself split into draw and scan
// sub-rows), lock, heap, stats, residual — each measured median-of-N
// through testing.Benchmark.
func runBudget(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerbench budget", flag.ContinueOnError)
	fs.SetOutput(stderr)
	queues := fs.Int("queues", 8, "MultiQueue queue count")
	prefill := fs.Int("prefill", 4096, "steady-state element count (spread over the queues)")
	runs := fs.Int("runs", 6, "median-of-N benchmark samples per component")
	seed := fs.Uint64("seed", 42, "root random seed")
	var out output
	out.addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.Budget(bench.BudgetSpec{
		Queues:  *queues,
		Prefill: *prefill,
		Runs:    *runs,
		Seed:    *seed,
	})
	if err != nil {
		return err
	}
	tb := bench.NewTable("row", "ns_op", "share", "notes")
	rep := bench.NewReport("budget", *seed)
	for _, c := range res.Components {
		name := c.Name
		if c.SubOf != "" {
			// Indent sub-rows under the component they decompose; they
			// attribute a slice of the parent's cost, not additional time.
			name = "  " + c.SubOf + "/" + c.Name
		}
		tb.AddRow(name, fmt.Sprintf("%.1f", c.NsPerOp), fmt.Sprintf("%.0f%%", c.Share*100), c.Doc)
		rep.Add(bench.Row{
			Component: c.Name, SubOf: c.SubOf, NsPerOp: c.NsPerOp, Share: c.Share,
			Queues: *queues,
		})
	}
	fmt.Fprintf(stderr, "budget: total %.1f ns/op over %d runs (queues=%d prefill=%d)\n",
		res.TotalNsPerOp, *runs, *queues, *prefill)
	return out.emit(stdout, tb, rep)
}
