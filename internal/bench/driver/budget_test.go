package driver

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"powerchoice/internal/bench"
)

// runMainErr runs a powerbench invocation expected to fail and returns its
// error.
func runMainErr(args ...string) error {
	var out, errBuf bytes.Buffer
	return Main(args, &out, &errBuf)
}

// budgetArgs keeps the probe runs tiny: the smoke tests check the
// decomposition's structure, not its numbers.
func budgetArgs(extra ...string) []string {
	base := []string{"-runs", "1", "-prefill", "512", "-queues", "4", "-seed", "7"}
	return append(base, extra...)
}

func TestBudgetJSONReport(t *testing.T) {
	stdout, _ := runMain(t, append([]string{"budget"}, budgetArgs("-json")...)...)
	var rep bench.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout)
	}
	if rep.Command != "budget" || rep.Seed != 7 {
		t.Errorf("report header: %+v", rep)
	}
	byName := map[string]bench.Row{}
	for _, r := range rep.Rows {
		byName[r.Component] = r
	}
	for _, want := range []string{"sample", "draw", "scan", "lock", "heap", "stats", "residual", "total"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("component row %q missing", want)
		}
	}
	for name, wantParent := range map[string]string{"draw": "sample", "scan": "sample"} {
		if got := byName[name].SubOf; got != wantParent {
			t.Errorf("%s row sub_of = %q, want %q", name, got, wantParent)
		}
	}
	for _, name := range []string{"sample", "lock", "heap", "stats", "residual", "total"} {
		if got := byName[name].SubOf; got != "" {
			t.Errorf("%s row sub_of = %q, want top-level", name, got)
		}
	}
	total := byName["total"]
	if total.NsPerOp <= 0 || math.Abs(total.Share-1) > 1e-9 {
		t.Errorf("total row malformed: %+v", total)
	}
	// The decomposition must be additive: top-level components + residual ==
	// total. Sub-rows attribute a slice of their parent's cost and stay out
	// of the sum — including them would double-book the parent.
	var sum float64
	for name, r := range byName {
		if name == "total" || r.SubOf != "" {
			continue
		}
		sum += r.NsPerOp
	}
	if math.Abs(sum-total.NsPerOp) > 1e-6*math.Abs(total.NsPerOp)+1e-9 {
		t.Errorf("components sum to %.3f, total is %.3f", sum, total.NsPerOp)
	}
}

func TestBudgetRejectsBadFlags(t *testing.T) {
	var err error
	if err = runMainErr("budget", "-queues", "1"); err == nil {
		t.Error("queues=1 accepted")
	}
	if err = runMainErr("budget", "-threads", "2"); err == nil {
		t.Error("-threads accepted; budget has no thread sweep")
	}
}
