package driver

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"powerchoice/internal/bench"
)

// TestServeWorkloadJSON: serve -workload must run a declarative spec and
// stamp provenance on every row — the spec name and trace hash on the
// summary, the per-class offered rate on class rows.
func TestServeWorkloadJSON(t *testing.T) {
	stdout, _ := runMain(t, "serve", "-workload", "heavytail", "-jobs", "3000",
		"-rho", "0.4", "-threads", "1", "-impls", "multiqueue", "-seed", "9", "-json")
	var rep bench.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout)
	}
	if len(rep.Rows) != 1+2 { // heavytail has 2 classes
		t.Fatalf("want 1 summary + 2 class rows: %+v", rep.Rows)
	}
	sum := rep.Rows[0]
	if sum.Workload != "heavytail" || !strings.HasPrefix(sum.TraceHash, "sha256:") {
		t.Errorf("summary provenance: %+v", sum)
	}
	if sum.Jobs != 3000 || sum.Rate <= 0 || sum.Rho <= 0 {
		t.Errorf("summary metrics: %+v", sum)
	}
	var classRate float64
	for i, row := range rep.Rows[1:] {
		if row.Class == nil || *row.Class != i || row.Workload != "heavytail" {
			t.Errorf("class row %d: %+v", i, row)
		}
		if row.ClassRate <= 0 {
			t.Errorf("class row %d missing class_rate: %+v", i, row)
		}
		classRate += row.ClassRate
	}
	// Per-class offered rates must sum back to the total offered rate.
	if diff := classRate - sum.Rate; diff > 1e-6*sum.Rate || diff < -1e-6*sum.Rate {
		t.Errorf("class rates sum to %g, total rate %g", classRate, sum.Rate)
	}
}

// TestRecordReplayDeterministic: record writes a trace whose hash the
// replays of two different queue implementations both report back, with
// per-class job counts identical across all three — the determinism
// contract the CI smoke leg enforces.
func TestRecordReplayDeterministic(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "w.trace")
	recOut, _ := runMain(t, "record", "-workload", "bursty", "-jobs", "4000",
		"-rate", "400000", "-trace", trace, "-seed", "5", "-json")
	var rec bench.Report
	if err := json.Unmarshal([]byte(recOut), &rec); err != nil {
		t.Fatalf("record JSON: %v\n%s", err, recOut)
	}
	if len(rec.Rows) != 1 || rec.Rows[0].Workload != "bursty" {
		t.Fatalf("record report: %+v", rec.Rows)
	}
	wantHash := rec.Rows[0].TraceHash
	if !strings.HasPrefix(wantHash, "sha256:") {
		t.Fatalf("record hash: %q", wantHash)
	}

	// Recording again with identical flags must produce the identical hash.
	trace2 := filepath.Join(t.TempDir(), "w2.trace")
	recOut2, _ := runMain(t, "record", "-workload", "bursty", "-jobs", "4000",
		"-rate", "400000", "-trace", trace2, "-seed", "5", "-json")
	if err := json.Unmarshal([]byte(recOut2), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Rows[0].TraceHash != wantHash {
		t.Fatalf("re-record changed the hash: %s vs %s", rec.Rows[0].TraceHash, wantHash)
	}

	type classCounts map[int]int64
	replayCounts := func(impl string) (string, classCounts) {
		out, _ := runMain(t, "replay", "-trace", trace, "-impls", impl,
			"-threads", "1", "-seed", "7", "-json")
		var rep bench.Report
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("replay JSON: %v\n%s", err, out)
		}
		counts := classCounts{}
		hash := ""
		for _, row := range rep.Rows {
			if row.Class != nil {
				counts[*row.Class] = row.Jobs
			} else {
				hash = row.TraceHash
				if row.Jobs != 4000 {
					t.Errorf("%s replay injected %d of 4000", impl, row.Jobs)
				}
			}
		}
		return hash, counts
	}
	hashA, countsA := replayCounts("multiqueue")
	hashB, countsB := replayCounts("globallock")
	if hashA != wantHash || hashB != wantHash {
		t.Errorf("replay hashes diverge from record: %s / %s vs %s", hashA, hashB, wantHash)
	}
	if len(countsA) == 0 || len(countsA) != len(countsB) {
		t.Fatalf("class counts: %v vs %v", countsA, countsB)
	}
	var total int64
	for c, n := range countsA {
		if countsB[c] != n {
			t.Errorf("class %d: %d jobs on multiqueue, %d on globallock", c, n, countsB[c])
		}
		total += n
	}
	if total != 4000 {
		t.Errorf("per-class jobs sum %d, want 4000", total)
	}
}

// TestReplayRejectsMissingTrace: replay without -trace, and with a
// nonexistent file, must fail loudly.
func TestReplayRejectsMissingTrace(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := Main([]string{"replay"}, &out, &errBuf); err == nil {
		t.Error("replay without -trace accepted")
	}
	if err := Main([]string{"replay", "-trace", "/nonexistent.trace"}, &out, &errBuf); err == nil {
		t.Error("replay of nonexistent trace accepted")
	}
	if err := Main([]string{"record", "-workload", "bursty"}, &out, &errBuf); err == nil {
		t.Error("record without -trace accepted")
	}
}

// TestCalibrateJSON: calibrate reports a positive spin-unit cost with host
// metadata in the standard report envelope.
func TestCalibrateJSON(t *testing.T) {
	stdout, _ := runMain(t, "calibrate", "-json")
	var rep bench.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout)
	}
	if rep.Command != "calibrate" || len(rep.Rows) != 1 {
		t.Fatalf("calibrate report: %+v", rep)
	}
	if rep.Rows[0].SpinNsPerUnit <= 0 {
		t.Errorf("spin_ns_per_unit missing: %+v", rep.Rows[0])
	}
	if rep.Host.GoVersion == "" || rep.Host.NumCPU < 1 {
		t.Errorf("host metadata missing: %+v", rep.Host)
	}
}
