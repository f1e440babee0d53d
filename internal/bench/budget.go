package bench

import (
	"fmt"
	"testing"

	"powerchoice/internal/core"
)

// Budget measures the ns/op budget of one steady-state Mixed pair: each
// component probe from core.BudgetProbes runs through the median-of-N
// microbenchmark runner, and the residual (call glue, cache interaction
// between components) is derived as total − Σ components.

// BudgetSpec configures a budget run.
type BudgetSpec struct {
	// Queues and Prefill shape the measured MultiQueue (total elements in
	// steady state, spread over the queues).
	Queues  int
	Prefill int
	// Runs is the median-of-N sample count per probe.
	Runs int
	// Seed drives the probes' deterministic workloads.
	Seed uint64
}

// BudgetComponent is one measured row of the budget table.
type BudgetComponent struct {
	Name    string
	Doc     string
	NsPerOp float64
	// Share is this component's fraction of the measured total.
	Share float64
	// SubOf names the parent component this row decomposes (empty for
	// top-level rows). Sub-rows attribute a slice of their parent's cost and
	// are excluded from the additive sum the residual is derived from —
	// counting them would double-book the parent's nanoseconds.
	SubOf string
}

// BudgetResult is the full outcome of one Budget invocation.
type BudgetResult struct {
	// Components holds the top-level rows (sample, lock, heap, stats),
	// each top-level row's sub-rows right after it (draw and scan under
	// sample), then residual (derived from the top-level rows only) and
	// total.
	Components []BudgetComponent
	// TotalNsPerOp is the measured full-pair cost the shares divide by.
	TotalNsPerOp float64
}

// Budget runs the decomposition. See BudgetSpec for knobs.
func Budget(spec BudgetSpec) (BudgetResult, error) {
	if spec.Runs < 1 {
		spec.Runs = 1
	}
	probes, err := core.BudgetProbes(spec.Queues, spec.Prefill, spec.Seed)
	if err != nil {
		return BudgetResult{}, err
	}
	measured := make(map[string]BudgetComponent, len(probes))
	var order []string
	for _, p := range probes {
		p := p
		ns := MedianNsPerOp(spec.Runs, func(b *testing.B) {
			run := p.New()
			b.ResetTimer()
			run(b.N)
		})
		measured[p.Name] = BudgetComponent{Name: p.Name, Doc: p.Doc, NsPerOp: ns, SubOf: p.SubOf}
		if p.Name != "total" {
			order = append(order, p.Name)
		}
	}
	total, ok := measured["total"]
	if !ok {
		return BudgetResult{}, fmt.Errorf("bench: core.BudgetProbes returned no total probe")
	}
	res := BudgetResult{TotalNsPerOp: total.NsPerOp}
	var sum float64
	for _, name := range order {
		c := measured[name]
		if c.SubOf != "" {
			continue // emitted under its parent below
		}
		c.Share = c.NsPerOp / total.NsPerOp
		sum += c.NsPerOp
		res.Components = append(res.Components, c)
		for _, sub := range order {
			sc := measured[sub]
			if sc.SubOf != name {
				continue
			}
			sc.Share = sc.NsPerOp / total.NsPerOp
			res.Components = append(res.Components, sc)
		}
	}
	residual := total.NsPerOp - sum
	res.Components = append(res.Components, BudgetComponent{
		Name:    "residual",
		Doc:     "total minus components: call glue and cross-component cache effects",
		NsPerOp: residual,
		Share:   residual / total.NsPerOp,
	})
	total.Share = 1
	res.Components = append(res.Components, total)
	return res, nil
}
