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
// summary, the per-class offered rate on class rows. The summary row also
// carries the achieved rate and the sojourn percentiles pooled over every
// class.
func TestServeWorkloadJSON(t *testing.T) {
	stdout, _ := runMain(t, "serve", "-workload", "heavytail", "-jobs", "3000",
		"-rate", "50000", "-threads", "1", "-impls", "multiqueue", "-seed", "9", "-json")
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
	if sum.AchievedRate <= 0 {
		t.Errorf("summary achieved_rate missing: %+v", sum)
	}
	if sum.SojournP50Ms <= 0 || sum.SojournP99Ms < sum.SojournP50Ms {
		t.Errorf("summary pooled sojourns: %+v", sum)
	}
	if rep.Command != "serve" {
		t.Errorf("report header: %+v", rep)
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

// TestCalibrateJSON: the host's spin-unit cost is measured once per
// process and reported on every serve summary row, beside the report's host
// metadata; class rows leave it out.
func TestCalibrateJSON(t *testing.T) {
	stdout, _ := runMain(t, "serve", "-jobs", "2000", "-rate", "50000", "-threads", "1",
		"-impls", "multiqueue,globallock", "-seed", "3", "-json")
	var rep bench.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout)
	}
	var spin []float64
	for _, row := range rep.Rows {
		if row.Class == nil {
			spin = append(spin, row.SpinNsPerUnit)
		} else if row.SpinNsPerUnit != 0 {
			t.Errorf("class row carries spin_ns_per_unit: %+v", row)
		}
	}
	if len(spin) != 2 || spin[0] <= 0 || spin[1] != spin[0] {
		t.Errorf("want one positive spin_ns_per_unit on both summary rows, got %v", spin)
	}
	if rep.Host.GoVersion == "" || rep.Host.NumCPU < 1 {
		t.Errorf("host metadata missing: %+v", rep.Host)
	}
}

// TestRecordReplayDeterministic: record writes a trace whose hash the
// serve -trace replays of two different queue implementations both report
// back, with per-class job counts identical across all three — the
// determinism contract the CI smoke leg enforces. With no load flag,
// record and a serve over two thread counts at equal -workload, -jobs and
// -seed generate that one trace too.
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
		out, _ := runMain(t, "serve", "-trace", trace, "-impls", impl,
			"-threads", "1", "-seed", "7", "-json")
		var rep bench.Report
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("serve -trace JSON: %v\n%s", err, out)
		}
		counts := classCounts{}
		hash := ""
		for _, row := range rep.Rows {
			if row.Class != nil {
				counts[*row.Class] = row.Jobs
			} else {
				hash = row.TraceHash
				if row.Jobs != 4000 {
					t.Errorf("%s serve -trace injected %d of 4000", impl, row.Jobs)
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

	defOut, _ := runMain(t, "record", "-workload", "bursty", "-jobs", "4000",
		"-trace", filepath.Join(t.TempDir(), "d.trace"), "-seed", "5", "-json")
	if err := json.Unmarshal([]byte(defOut), &rec); err != nil {
		t.Fatal(err)
	}
	defHash := rec.Rows[0].TraceHash
	serveOut, _ := runMain(t, "serve", "-workload", "bursty", "-jobs", "4000",
		"-seed", "5", "-threads", "1,2", "-impls", "globallock", "-json")
	var served bench.Report
	if err := json.Unmarshal([]byte(serveOut), &served); err != nil {
		t.Fatalf("serve JSON: %v\n%s", err, serveOut)
	}
	var summaries int
	for _, row := range served.Rows {
		if row.Class == nil {
			summaries++
			if row.TraceHash != defHash {
				t.Errorf("serve at %d threads replayed %s, record wrote %s", row.Threads, row.TraceHash, defHash)
			}
		}
	}
	if summaries != 2 {
		t.Errorf("serve -threads 1,2 gave %d summary rows, want 2", summaries)
	}
}

// TestReplayRejectsMissingTrace: serve -trace must fail loudly on a
// nonexistent file, and on a real recording when -workload, -jobs or -rate
// also asks for a generated trace; record without -trace fails too.
func TestReplayRejectsMissingTrace(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := Main([]string{"serve", "-trace", "/nonexistent.trace",
		"-threads", "1", "-impls", "globallock"}, &out, &errBuf); err == nil {
		t.Error("serve of a nonexistent trace accepted")
	}
	trace := filepath.Join(t.TempDir(), "w.trace")
	runMain(t, "record", "-workload", "bursty", "-jobs", "200", "-trace", trace)
	replay := []string{"serve", "-trace", trace, "-threads", "1", "-impls", "globallock"}
	runMain(t, replay...)
	for _, extra := range [][]string{{"-rate", "100000"}, {"-workload", "bursty"}, {"-jobs", "200"}} {
		err := Main(append(append([]string(nil), replay...), extra...), &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("serve -trace with %s: want an error naming it, got %v", extra[0], err)
		}
	}
	if err := Main([]string{"record", "-workload", "bursty"}, &out, &errBuf); err == nil {
		t.Error("record without -trace accepted")
	}
}
