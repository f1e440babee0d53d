package workload

import (
	"bytes"
	"testing"
)

func transformFixture(t *testing.T) *Trace {
	t.Helper()
	s, err := Preset("bursty")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(s, 9, 2000, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestScaleRate: the schedule compresses/stretches by exactly f, the job
// population is untouched, the recorded rate scales, provenance rehashes,
// and the original trace is not mutated.
func TestScaleRate(t *testing.T) {
	tr := transformFixture(t)
	origHash, err := tr.Hash()
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := tr.ScaleRate(2)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Jobs() != tr.Jobs() {
		t.Fatalf("scaling changed the job count: %d -> %d", tr.Jobs(), scaled.Jobs())
	}
	if scaled.Rate != tr.Rate*2 {
		t.Fatalf("rate %v after scaling by 2, want %v", scaled.Rate, tr.Rate*2)
	}
	prev := int64(0)
	for i, v := range scaled.ArrivalNs {
		if want := int64(float64(tr.ArrivalNs[i]) / 2); v != want {
			t.Fatalf("arrival %d: %d, want %d", i, v, want)
		}
		if v < prev {
			t.Fatalf("arrival %d breaks monotonicity", i)
		}
		prev = v
		if scaled.Class[i] != tr.Class[i] || scaled.Service[i] != tr.Service[i] {
			t.Fatalf("job %d changed identity under a rate scale", i)
		}
	}
	newHash, err := scaled.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if newHash == origHash {
		t.Fatal("scaled trace hashes identically to the original; provenance must rehash")
	}
	if h, _ := tr.Hash(); h != origHash {
		t.Fatal("ScaleRate mutated the receiver")
	}
	// A scaled trace must survive the write/read round trip (ordering and
	// hash checks included).
	var buf bytes.Buffer
	if err := WriteTrace(&buf, scaled); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := back.Hash(); h != newHash {
		t.Fatal("scaled trace round trip changed the hash")
	}
	if _, err := tr.ScaleRate(0); err == nil {
		t.Fatal("ScaleRate(0) accepted")
	}
	if _, err := tr.ScaleRate(-1); err == nil {
		t.Fatal("ScaleRate(-1) accepted")
	}
}
