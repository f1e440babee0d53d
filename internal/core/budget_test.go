package core

import (
	"reflect"
	"testing"
)

// TestBudgetProbesShape pins the structure perfbench's layer ledger reads:
// the seven probes in order, draw and scan attributed to sample and every
// other probe top-level, each probe's loop runnable, and the argument
// checks.
func TestBudgetProbesShape(t *testing.T) {
	probes, err := BudgetProbes(4, 2048, 7)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range probes {
		names = append(names, p.Name)
		wantSub := ""
		if p.Name == "draw" || p.Name == "scan" {
			wantSub = "sample"
		}
		if p.SubOf != wantSub {
			t.Errorf("%s: SubOf %q, want %q", p.Name, p.SubOf, wantSub)
		}
		p.New()(64)
	}
	if want := []string{"sample", "draw", "scan", "lock", "heap", "stats", "total"}; !reflect.DeepEqual(names, want) {
		t.Errorf("probes %v, want %v", names, want)
	}
	if _, err := BudgetProbes(1, 2048, 7); err == nil {
		t.Error("one queue accepted")
	}
	if _, err := BudgetProbes(4, 3, 7); err == nil {
		t.Error("prefill below the queue count accepted")
	}
}
