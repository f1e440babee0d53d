package workload

import (
	"bytes"
	"regexp"
	"testing"
)

// hugeJobCountTrace is a trace header, valid in every field but one, that
// declares 2^62 jobs and is followed by no records.
func hugeJobCountTrace(t testing.TB) []byte {
	t.Helper()
	spec, err := Preset("bursty")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(spec, 1, 8, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	header, _, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	jobs := regexp.MustCompile(`"jobs":8,`)
	if !jobs.Match(header) {
		t.Fatalf("header %s has no \"jobs\":8 field", header)
	}
	return append(jobs.ReplaceAll(header, []byte(`"jobs":4611686018427387904,`)), '\n')
}

// TestReadTraceHugeJobCount: ReadTrace must not size its record slices from
// the header's job count before the records are read. A header declaring
// 2^62 jobs made make panic with "cap out of range"; it must be an error.
func TestReadTraceHugeJobCount(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader(hugeJobCountTrace(t))); err == nil {
		t.Fatal("trace declaring 2^62 jobs and holding none accepted")
	}
}

// FuzzReadTrace feeds ReadTrace arbitrary bytes. Every input must either be
// rejected with an error or give a trace that writes and reads back under
// the same hash; none may panic. The checked-in corpus holds a valid 64-job
// trace, a truncated copy of it and the 2^62-job header, and runs as plain
// subtests in every go test.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := tr.Hash()
		if err != nil {
			t.Fatalf("accepted trace does not hash: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("accepted trace does not read back: %v", err)
		}
		got, err := back.Hash()
		if err != nil {
			t.Fatalf("re-read trace does not hash: %v", err)
		}
		if got != want {
			t.Fatalf("round trip changed the hash: %s, then %s", want, got)
		}
	})
}
