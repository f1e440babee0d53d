package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"powerchoice/internal/bench"
	"powerchoice/internal/jobs"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/workload"
)

// shortRankArgs keeps rank runs -test.short friendly and, with one thread,
// deterministic under a fixed seed.
func shortRankArgs(extra ...string) []string {
	base := []string{
		"-threads", "1", "-prefill", "2048", "-ops", "256",
		"-reps", "1", "-seed", "7",
	}
	return append(base, extra...)
}

func runMain(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	if err := Main(args, &out, &errBuf); err != nil {
		t.Fatalf("powerbench %s: %v\nstderr:\n%s", strings.Join(args, " "), err, errBuf.String())
	}
	return out.String(), errBuf.String()
}

func TestMainDispatch(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := Main(nil, &out, &errBuf); err == nil {
		t.Error("no subcommand accepted")
	}
	for _, sub := range []string{"bogus", "astar", "replay", "calibrate"} {
		if err := Main([]string{sub}, &out, &errBuf); err == nil ||
			!strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("%s: want an unknown-subcommand error, got %v", sub, err)
		}
	}
	out.Reset()
	if err := Main([]string{"help"}, &out, &errBuf); err != nil {
		t.Errorf("help: %v", err)
	}
	if !strings.Contains(out.String(), "powerbench") {
		t.Error("help printed no usage")
	}
}

func TestRankJSONReportsResolvedTopology(t *testing.T) {
	stdout, _ := runMain(t, append([]string{"rank"}, shortRankArgs("-impls", "multiqueue", "-json")...)...)
	var rep bench.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout)
	}
	if rep.Command != "rank" || rep.Seed != 7 {
		t.Errorf("report header: %+v", rep)
	}
	if rep.Host.GOMAXPROCS != runtime.GOMAXPROCS(0) || rep.Host.GoVersion == "" {
		t.Errorf("host metadata missing: %+v", rep.Host)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rep.Rows))
	}
	row := rep.Rows[0]
	// The MultiQueue leg must resolve to the paper's pinned topology — with
	// genuine relaxation — regardless of the host's core count.
	if row.Impl != "multiqueue" || row.Queues != pqadapt.PaperQueues || row.Choices != 2 {
		t.Errorf("resolved topology: %+v", row)
	}
	if row.Beta == nil || *row.Beta != 1 {
		t.Errorf("beta missing: %+v", row)
	}
	if row.MeanRank < 1 || row.Removals == 0 {
		t.Errorf("summary numbers missing: %+v", row)
	}
}

func TestRankJSONDeterministicUnderFixedSeed(t *testing.T) {
	args := append([]string{"rank"}, shortRankArgs("-impls", "multiqueue", "-json")...)
	first, _ := runMain(t, args...)
	second, _ := runMain(t, args...)
	if first != second {
		t.Errorf("single-threaded rank not deterministic under fixed seed:\n%s\nvs:\n%s", first, second)
	}
}

// TestRankTableMatchesJSON: the -out file carries the same summary numbers
// as the table printed in the same invocation (acceptance criterion: JSON
// and legacy table output agree for the same seed).
func TestRankTableMatchesJSON(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "rank.json")
	stdout, _ := runMain(t, append([]string{"rank"},
		shortRankArgs("-impls", "multiqueue", "-out", outFile)...)...)
	b, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("invalid JSON in -out file: %v", err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 3 { // header, separator, one data row
		t.Fatalf("table:\n%s", stdout)
	}
	fields := strings.Fields(lines[2])
	if len(fields) != 6 {
		t.Fatalf("table row: %q", lines[2])
	}
	row := rep.Rows[0]
	want := []string{
		"multiqueue",
		fmt.Sprintf("%.3f", row.MeanRank),
		fmt.Sprintf("%.3f", row.P50),
		fmt.Sprintf("%.3f", row.P99),
		fmt.Sprintf("%.3f", row.MaxRank),
		fmt.Sprintf("%d", row.Removals),
	}
	if !reflect.DeepEqual(fields, want) {
		t.Errorf("table row %v disagrees with JSON %v", fields, want)
	}
}

func TestSweepJSONCarriesBetaZero(t *testing.T) {
	stdout, _ := runMain(t, append([]string{"sweep"},
		shortRankArgs("-beta", "0,0.5", "-json")...)...)
	var rep bench.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout)
	}
	if rep.Command != "sweep" || len(rep.Rows) != 2 {
		t.Fatalf("report: %+v", rep)
	}
	for i, wantBeta := range []float64{0, 0.5} {
		row := rep.Rows[i]
		if row.Beta == nil || *row.Beta != wantBeta {
			t.Errorf("row %d beta = %v, want %v", i, row.Beta, wantBeta)
		}
		if row.Queues != 8 || row.Choices != 2 {
			t.Errorf("row %d topology: %+v", i, row)
		}
	}
}

func TestThroughputJSON(t *testing.T) {
	stdout, _ := runMain(t, "throughput",
		"-impls", "multiqueue", "-threads", "1", "-duration", "10ms",
		"-prefill", "1024", "-reps", "1", "-seed", "3", "-json")
	var rep bench.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout)
	}
	if rep.Command != "throughput" || len(rep.Rows) != 1 {
		t.Fatalf("report: %+v", rep)
	}
	row := rep.Rows[0]
	if row.MOps <= 0 || row.Ops <= 0 || row.Threads != 1 {
		t.Errorf("throughput row: %+v", row)
	}
	// Derived topology: floored, never degenerate, reported.
	if row.Queues < 4 || row.Choices >= row.Queues {
		t.Errorf("derived topology degenerate or missing: %+v", row)
	}
}

// TestSSSPJSONAndCSV: an sssp run with -verify checks its distances
// against sequential Dijkstra and reports wall time, speedup and the
// resolved topology. No subcommand prints CSV: TestRetiredFlagsNotDefined
// checks that -csv fails everywhere.
func TestSSSPJSONAndCSV(t *testing.T) {
	stdout, _ := runMain(t, "sssp",
		"-impls", "onebeta75", "-threads", "1", "-grid", "20",
		"-reps", "1", "-seed", "4", "-verify", "-json")
	var rep bench.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout)
	}
	if rep.Command != "sssp" || len(rep.Rows) != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if row := rep.Rows[0]; row.Millis <= 0 || row.Speedup <= 0 || row.Queues < 4 {
		t.Errorf("sssp row: %+v", row)
	}
}

// uniformSpecFile writes a workload spec of `classes` equally weighted
// classes of uniform service with the given mean and returns its path.
func uniformSpecFile(t *testing.T, name string, classes int, mean float64) string {
	t.Helper()
	spec := workload.Spec{Name: name, Arrival: workload.ArrivalSpec{Process: workload.ArrivalPoisson}}
	for c := 0; c < classes; c++ {
		spec.Classes = append(spec.Classes, workload.ClassSpec{
			Weight: 1, Service: workload.ServiceSpec{Law: workload.ServiceUniform, Mean: mean},
		})
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJobsJSONPerClassRows(t *testing.T) {
	spec := uniformSpecFile(t, "uniform3x2", 3, 2)
	stdout, _ := runMain(t, "jobs", "-jobs", "6000", "-workload", spec,
		"-threads", "2", "-impls", "multiqueue", "-seed", "9", "-json")
	var rep bench.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout)
	}
	if rep.Command != "jobs" || len(rep.Rows) != 1+3 {
		t.Fatalf("want 1 summary + 3 class rows: %+v", rep.Rows)
	}
	sum := rep.Rows[0]
	if sum.Class != nil || sum.Jobs != 6000 || sum.Millis <= 0 || sum.MJobs <= 0 {
		t.Errorf("summary row: %+v", sum)
	}
	if sum.Workload != "uniform3x2" {
		t.Errorf("summary row workload %q, want uniform3x2", sum.Workload)
	}
	var classJobs int64
	for i, row := range rep.Rows[1:] {
		if row.Class == nil || *row.Class != i {
			t.Fatalf("class row %d: %+v", i, row)
		}
		if row.Jobs <= 0 || row.P99Ms < row.P50Ms {
			t.Errorf("class row %d latencies: %+v", i, row)
		}
		classJobs += row.Jobs
	}
	if classJobs != 6000 {
		t.Errorf("per-class jobs sum %d, want 6000", classJobs)
	}
}

// TestJobsAndServeServeTheSameJobs: a drain and an open run of equal
// -workload, -jobs and -seed generate the same classes whatever the open
// run's rate, so both report identical per-class job counts.
func TestJobsAndServeServeTheSameJobs(t *testing.T) {
	classJobs := func(args ...string) map[int]int64 {
		t.Helper()
		stdout, _ := runMain(t, append(args, "-workload", "poisson", "-jobs", "6000",
			"-seed", "9", "-threads", "1", "-impls", "globallock", "-json")...)
		var rep bench.Report
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatalf("%s: invalid JSON: %v\n%s", args[0], err, stdout)
		}
		out := map[int]int64{}
		for _, row := range rep.Rows {
			if row.Class != nil {
				out[*row.Class] = row.Jobs
			}
		}
		return out
	}
	drained := classJobs("jobs")
	served := classJobs("serve", "-rate", "100000")
	if len(drained) != 4 || !reflect.DeepEqual(drained, served) {
		t.Errorf("per-class jobs: drain %v, serve %v", drained, served)
	}
}

// TestJobsRejectsBadFlags: the retired -classes and -service flags and an
// unknown workload fail rather than silently draining something else.
func TestJobsRejectsBadFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	for _, name := range []string{"-classes", "-service"} {
		if err := Main([]string{"jobs", "-jobs", "100", name, "4"}, &out, &errBuf); err == nil ||
			!strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: want an unknown-flag error, got %v", name, err)
		}
	}
	if err := Main([]string{"jobs", "-jobs", "100", "-workload", "bogus"}, &out, &errBuf); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestServeJSONPerClassRows: powerbench serve emits one open-system summary
// row (rho, offered rate, mean queue length) plus one sojourn row per
// priority class, for every configured implementation. With no -workload it
// serves the poisson preset's 4 classes, and every row's rho is the load
// the generated trace offers: rate × mean realized service ×
// SpinNsPerUnit / 1e9 / threads.
func TestServeJSONPerClassRows(t *testing.T) {
	stdout, _ := runMain(t, "serve", "-jobs", "4000", "-rate", "50000", "-threads", "1",
		"-impls", "multiqueue,globallock", "-seed", "9", "-json")
	var rep bench.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout)
	}
	if rep.Command != "serve" || len(rep.Rows) != 2*(1+4) {
		t.Fatalf("want 2×(1 summary + 4 class rows): %+v", rep.Rows)
	}
	spec, err := workload.Preset("poisson")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(spec, 9, 4000, 50000)
	if err != nil {
		t.Fatal(err)
	}
	var services float64
	for _, s := range tr.Service {
		services += float64(s)
	}
	rho := tr.Rate * (services / 4000) * jobs.SpinNsPerUnit() / 1e9 / 1
	for impl := 0; impl < 2; impl++ {
		sum := rep.Rows[impl*5]
		if sum.Class != nil || sum.Jobs != 4000 || sum.Millis <= 0 {
			t.Errorf("summary row: %+v", sum)
		}
		if sum.Rho != rho || sum.Rate != tr.Rate || sum.QLenMean < 0 || sum.Workload != "poisson" {
			t.Errorf("summary open-system fields: %+v (trace rho %v)", sum, rho)
		}
		var classJobs int64
		for i, row := range rep.Rows[impl*5+1 : impl*5+5] {
			if row.Class == nil || *row.Class != i {
				t.Fatalf("class row %d: %+v", i, row)
			}
			if row.Jobs <= 0 || row.SojournP99Ms < row.SojournP50Ms || row.Rho != rho {
				t.Errorf("class row %d sojourns: %+v", i, row)
			}
			// The closed-system drain percentiles must stay absent: sojourn
			// and drain latency are different metrics (EXPERIMENTS.md).
			if row.P50Ms != 0 || row.P99Ms != 0 {
				t.Errorf("class row %d carries drain percentiles: %+v", i, row)
			}
			classJobs += row.Jobs
		}
		if classJobs != 4000 {
			t.Errorf("per-class jobs sum %d, want 4000", classJobs)
		}
	}
}

// TestServeRejectsBadFlags: a zero rate, an unknown implementation and the
// retired -classes and -rho flags all fail rather than silently measuring
// something else.
func TestServeRejectsBadFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := Main([]string{"serve", "-jobs", "100", "-rate", "0", "-threads", "1",
		"-impls", "globallock"}, &out, &errBuf); err == nil {
		t.Error("rate 0 accepted")
	}
	if err := Main([]string{"serve", "-jobs", "100", "-threads", "1",
		"-impls", "bogus"}, &out, &errBuf); err == nil {
		t.Error("bogus impl accepted")
	}
	for _, name := range []string{"-classes", "-rho"} {
		if err := Main([]string{"serve", "-jobs", "100", "-threads", "1",
			name, "4"}, &out, &errBuf); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: want an unknown-flag error, got %v", name, err)
		}
	}
}

// TestRetiredFlagsNotDefined: record's load flags other than -rate, rank's
// -impl, the rankbench-era -betas, the -thin and -scale-rate trace
// transforms (a recorded trace replays at the rate it was recorded at) and
// every subcommand's -csv fail instead of being ignored or folded into
// another flag.
func TestRetiredFlagsNotDefined(t *testing.T) {
	var out, errBuf bytes.Buffer
	retired := [][]string{
		{"record", "-rho", "0.5"},
		{"record", "-threads", "2"},
		{"rank", "-impl", "multiqueue"},
		{"rank", "-betas", "1"},
		{"sweep", "-betas", "1"},
		{"serve", "-thin", "0.5"},
		{"serve", "-scale-rate", "2"},
	}
	for sub := range subcommands {
		retired = append(retired, []string{sub, "-csv"})
	}
	for _, args := range retired {
		if err := Main(args, &out, &errBuf); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: want an unknown-flag error, got %v", args, err)
		}
	}
}

// TestSubcommandListsAgree: README's powerbench command block, usageText
// and Main's dispatch name the same subcommands.
func TestSubcommandListsAgree(t *testing.T) {
	dispatched := map[string]bool{}
	for name := range subcommands {
		dispatched[name] = true
	}
	usage := map[string]bool{}
	_, list, _ := strings.Cut(usageText, "Subcommands:\n\n")
	list, _, _ = strings.Cut(list, "\n\n")
	for _, line := range strings.Split(list, "\n") {
		// A name starts at column 2; continuation lines are indented further.
		if strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") {
			if name := strings.Fields(line)[0]; name != "help" {
				usage[name] = true
			}
		}
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(readme), "## Benchmarks: `powerbench`")
	_, block, _ = strings.Cut(block, "```sh\n")
	block, _, _ = strings.Cut(block, "```")
	documented := map[string]bool{}
	for _, line := range strings.Split(block, "\n") {
		if rest, ok := strings.CutPrefix(line, "go run ./cmd/powerbench "); ok {
			documented[strings.Fields(rest)[0]] = true
		}
	}
	if !reflect.DeepEqual(dispatched, usage) || !reflect.DeepEqual(dispatched, documented) {
		t.Errorf("subcommand lists disagree:\ndispatch %v\nusage    %v\nREADME   %v", dispatched, usage, documented)
	}
}

func TestRankDefaultsToFullLineup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole line-up")
	}
	stdout, _ := runMain(t, append([]string{"rank"}, shortRankArgs("-json")...)...)
	var rep bench.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(pqadapt.Impls()) {
		t.Errorf("rows = %d, want the %d line-up impls", len(rep.Rows), len(pqadapt.Impls()))
	}
}
