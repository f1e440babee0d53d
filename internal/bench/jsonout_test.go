package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"powerchoice/internal/pqadapt"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func floatPtr(f float64) *float64 { return &f }
func intPtr(i int) *int           { return &i }

// pinnedReport is a fully specified report — host included — so its JSON
// rendering is byte-identical on every machine.
func pinnedReport() *Report {
	return &Report{
		Command: "rank",
		Seed:    42,
		Host: Host{
			GOMAXPROCS: 8,
			NumCPU:     8,
			GoVersion:  "go1.24.0",
			OS:         "linux",
			Arch:       "amd64",
		},
		Rows: []Row{
			{
				Impl: "multiqueue", Beta: floatPtr(1), Queues: 8, Choices: 2,
				Threads: 8, MeanRank: 9.25, P50: 7, P99: 41, MaxRank: 113,
				Removals: 4096,
			},
			{
				Impl: "onebeta50", Beta: floatPtr(0.5), Queues: 8, Choices: 2,
				Threads: 8, MeanRank: 14.5, P50: 11, P99: 77, MaxRank: 240,
				Removals: 4096,
			},
			{
				Impl: "globallock", Threads: 8, MeanRank: 1, P50: 1, P99: 1,
				MaxRank: 2, Removals: 4096,
			},
			// A throughput row with the post-accounting-fix shape: Ops
			// counts successes only, EmptyPops is surfaced separately.
			{
				Impl: "multiqueue", Beta: floatPtr(1), Queues: 8, Choices: 2,
				Threads: 4, MOps: 9.125, Ops: 4_550_000, EmptyPops: 17,
			},
			// A batched throughput row: batch records the bulk-operation
			// size k, buffered_pops the elements served from batch refills
			// beyond their first element.
			{
				Impl: "multiqueue", Beta: floatPtr(1), Queues: 8, Choices: 2,
				Threads: 4, Batch: 8, MOps: 12.75, Ops: 6_400_000,
				EmptyPops: 3, BufferedPops: 2_800_000,
			},
			// An sssp row: wall time, speedup and stale pops.
			{
				Impl: "onebeta75", Beta: floatPtr(0.75), Queues: 8, Choices: 2,
				Threads: 4, Millis: 12.5, Speedup: 1.75, WastedPops: 310,
			},
			// A jobs summary row and a per-class row; Class is a pointer
			// exactly so that class 0 is distinguishable from absent.
			{
				Impl: "multiqueue", Beta: floatPtr(1), Queues: 8, Choices: 2,
				Threads: 4, Millis: 80.25, MJobs: 1.25, Jobs: 100_000,
				Inversions: 4321, InvWaiting: 9876,
			},
			{
				Impl: "multiqueue", Beta: floatPtr(1), Queues: 8, Choices: 2,
				Threads: 4, Class: intPtr(0), Jobs: 12_500, P50Ms: 2.125,
				P99Ms: 13.75,
			},
			// An open-system serve summary row (spin-only offered load, offered
			// rate, mean queue length) and one of its per-class rows, whose
			// percentiles are *sojourn* times, not drain latencies.
			{
				Impl: "onebeta75", Beta: floatPtr(0.75), Queues: 8, Choices: 2,
				Threads: 4, Millis: 512.5, Jobs: 200_000, Inversions: 1234,
				InvWaiting: 5678, Rho: 0.8, Rate: 1_562_500, QLenMean: 42.25,
			},
			{
				Impl: "onebeta75", Beta: floatPtr(0.75), Queues: 8, Choices: 2,
				Threads: 4, Class: intPtr(0), Jobs: 25_000, Rho: 0.8,
				SojournP50Ms: 0.375, SojournP99Ms: 4.5,
			},
			// A workload-driven serve summary row and one of its per-class
			// rows: the spec name and trace hash identify exactly what was
			// offered, class_rate the class's share of the offered λ. The
			// summary also carries the achieved rate, the sojourn
			// percentiles pooled over every class and the host's measured
			// spin-unit cost.
			{
				Impl: "multiqueue", Beta: floatPtr(1), Queues: 8, Choices: 2,
				Threads: 4, Millis: 250.5, Jobs: 50_000, Rho: 0.75,
				Rate: 200_000, AchievedRate: 199_600.25, SojournP50Ms: 0.25,
				SojournP99Ms: 7.5, QLenMean: 18.5, SpinNsPerUnit: 1.375,
				Workload:  "heavytail",
				TraceHash: "sha256:0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
			},
			{
				Impl: "multiqueue", Beta: floatPtr(1), Queues: 8, Choices: 2,
				Threads: 4, Class: intPtr(0), Jobs: 37_500, Rho: 0.75,
				SojournP50Ms: 0.5, SojournP99Ms: 9.125, Workload: "heavytail",
				ClassRate: 150_000,
			},
		},
	}
}

func TestReportGolden(t *testing.T) {
	got, err := pinnedReport().JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestReportRoundTrip(t *testing.T) {
	in := pinnedReport()
	// A β = 0 sweep row must survive the trip: beta is a pointer exactly so
	// that zero is distinguishable from absent.
	in.Rows = append(in.Rows, Row{
		Beta: floatPtr(0), Queues: 8, Choices: 2, Threads: 8,
		MeanRank: 3.5, P50: 3, P99: 12, MaxRank: 30, Removals: 2048,
	})
	b, err := in.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*in, out) {
		t.Errorf("round trip mismatch:\nin:  %+v\nout: %+v", *in, out)
	}
	last := out.Rows[len(out.Rows)-1]
	if last.Beta == nil || *last.Beta != 0 {
		t.Errorf("β = 0 did not survive the round trip: %+v", last)
	}
	// The class-0 rows must keep their class through the trip for the same
	// reason β = 0 must.
	var classRows int
	for _, row := range out.Rows {
		if row.Class != nil {
			classRows++
			if *row.Class != 0 {
				t.Errorf("class 0 did not survive the round trip: %+v", row)
			}
		}
	}
	if classRows != 3 {
		t.Errorf("%d class rows survived the round trip, want 3", classRows)
	}
}

func TestCurrentHostPopulated(t *testing.T) {
	h := CurrentHost()
	if h.GOMAXPROCS < 1 || h.NumCPU < 1 || h.GoVersion == "" || h.OS == "" || h.Arch == "" {
		t.Errorf("CurrentHost incomplete: %+v", h)
	}
}

func TestRowSetTopology(t *testing.T) {
	var r Row
	r.SetTopology(pqadapt.Topology{Impl: pqadapt.ImplOneBeta75, Queues: 8, Choices: 2, Beta: 0.75})
	if r.Impl != "onebeta75" || r.Queues != 8 || r.Choices != 2 || r.Beta == nil || *r.Beta != 0.75 {
		t.Errorf("SetTopology: %+v", r)
	}
	// Implementations without internal queues contribute no topology fields.
	var s Row
	s.Impl = "globallock"
	s.SetTopology(pqadapt.Topology{Impl: pqadapt.ImplGlobalLock})
	if s.Impl != "globallock" || s.Queues != 0 || s.Beta != nil {
		t.Errorf("SetTopology on globallock: %+v", s)
	}
}
