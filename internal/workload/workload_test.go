package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecValidate: each shape's parameter constraints must reject the
// out-of-range values Generate would otherwise compile into nonsense.
func TestSpecValidate(t *testing.T) {
	good := func() *Spec {
		return &Spec{
			Name:    "t",
			Arrival: ArrivalSpec{Process: ArrivalMMPP, Burst: 4, PhaseS: 0.01},
			Classes: []ClassSpec{{Weight: 1, Service: ServiceSpec{Law: ServiceUniform, Mean: 8}}},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no-name", func(s *Spec) { s.Name = "" }},
		{"no-classes", func(s *Spec) { s.Classes = nil }},
		{"257-classes", func(s *Spec) {
			for len(s.Classes) < 257 {
				s.Classes = append(s.Classes, s.Classes[0])
			}
		}},
		{"zero-weight", func(s *Spec) { s.Classes[0].Weight = 0 }},
		{"bad-law", func(s *Spec) { s.Classes[0].Service.Law = "exp" }},
		{"small-mean", func(s *Spec) { s.Classes[0].Service.Mean = 0.5 }},
		{"bad-process", func(s *Spec) { s.Arrival.Process = "weibull" }},
		{"burst-le-1", func(s *Spec) { s.Arrival.Burst = 1 }},
		{"zero-phase", func(s *Spec) { s.Arrival.PhaseS = 0 }},
		{"future-version", func(s *Spec) { s.Version = SchemaVersion + 1 }},
		{"pareto-max-le-mean", func(s *Spec) {
			s.Classes[0].Service = ServiceSpec{Law: ServicePareto, Mean: 100, Alpha: 1.5, Max: 100}
		}},
		{"lognormal-no-sigma", func(s *Spec) {
			s.Classes[0].Service = ServiceSpec{Law: ServiceLognormal, Mean: 100}
		}},
		{"pareto-max-past-uint32", func(s *Spec) {
			s.Classes[0].Service = ServiceSpec{Law: ServicePareto, Mean: 100, Alpha: 1.5, Max: 1 << 32}
		}},
		{"lognormal-mean-past-uint32", func(s *Spec) {
			s.Classes[0].Service = ServiceSpec{Law: ServiceLognormal, Mean: 1 << 32, Sigma: 1}
		}},
		{"sub-microsecond-phase", func(s *Spec) { s.Arrival.PhaseS = 1e-7 }},
		{"sub-microsecond-cycle", func(s *Spec) {
			s.Arrival = ArrivalSpec{Process: ArrivalOnOff, OnFraction: 0.5, CycleS: 1e-7}
		}},
	}
	for _, tc := range cases {
		s := good()
		tc.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}
}

// TestParseSpecRejectsWhatGenerateCannotHonour pins four specs ParseSpec
// used to accept. A uniform mean of 5e18 made Generate panic in Intn; one of
// 3e9 wrapped its draws at 2^32, so a 2,000-job trace had a mean service of
// 1.78e9 while MeanService, and so ρ, used 3e9; one of 1.4 drew every
// service as 1 while MeanService used 1.4, so a ρ target offered about 71%
// of the asked load; two classes of weight 1e308 made MeanService NaN and
// put every job in class 1. The uniform bound is exact: a mean of 2^31
// draws up to 2^32 − 1 and is accepted, 2^31 + 1 is not.
func TestParseSpecRejectsWhatGenerateCannotHonour(t *testing.T) {
	uniform := func(mean string) string {
		return `{"name":"u","arrival":{"process":"poisson"},"classes":[{"weight":1,"service":{"law":"uniform","mean":` + mean + `}}]}`
	}
	for name, body := range map[string]string{
		"uniform mean 5e18":     uniform("5e18"),
		"uniform mean 3e9":      uniform("3e9"),
		"uniform mean 2^31 + 1": uniform("2147483649"),
		"uniform mean 1.4":      uniform("1.4"),
		"weights 1e308": `{"name":"w","arrival":{"process":"poisson"},"classes":[` +
			`{"weight":1e308,"service":{"law":"uniform","mean":256}},` +
			`{"weight":1e308,"service":{"law":"uniform","mean":256}}]}`,
	} {
		if s, err := ParseSpec([]byte(body)); err == nil {
			t.Errorf("%s: accepted as %+v", name, s)
		}
	}
	s, err := ParseSpec([]byte(uniform("2147483648")))
	if err != nil {
		t.Fatalf("uniform mean 2^31 rejected: %v", err)
	}
	law := newServiceSampler(s.Classes[0].Service).(uniformLaw)
	if got := 2*law.mean - 1; got != math.MaxUint32 {
		t.Fatalf("uniform mean 2^31 draws up to %d, want %d", got, uint32(math.MaxUint32))
	}
}

// TestGenerateValidatesJobsAndRate: Generate rejects a trace of no jobs and
// a non-positive rate before drawing anything.
func TestGenerateValidatesJobsAndRate(t *testing.T) {
	spec, err := Preset("poisson")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(spec, 1, 0, 1e5); err == nil {
		t.Error("0 jobs accepted")
	}
	if _, err := Generate(spec, 1, 10, 0); err == nil {
		t.Error("rate 0 accepted")
	}
}

// FuzzParseSpec feeds ParseSpec arbitrary bytes. Every input must either be
// rejected with an error or give a spec that Generate honours: 256 jobs
// generate, MeanService and every class share are finite, and every service
// time is at least 1. The checked-in corpus holds the poisson preset and
// the four specs TestParseSpecRejectsWhatGenerateCannotHonour pins, and
// runs as plain subtests in every go test.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		tr, err := Generate(s, 1, 256, 1e6)
		if err != nil {
			t.Fatalf("accepted spec does not generate: %v", err)
		}
		if m := s.MeanService(); math.IsNaN(m) || math.IsInf(m, 0) {
			t.Fatalf("accepted spec has mean service %v", m)
		}
		for c, share := range s.ClassShares() {
			if math.IsNaN(share) || math.IsInf(share, 0) {
				t.Fatalf("accepted spec gives class %d share %v", c, share)
			}
		}
		for i, sv := range tr.Service {
			if sv < 1 {
				t.Fatalf("job %d has service %d", i, sv)
			}
		}
	})
}

// TestPresetsAllValid: every built-in preset must validate and generate.
func TestPresetsAllValid(t *testing.T) {
	names := PresetNames()
	if len(names) < 5 {
		t.Fatalf("only %d presets: %v", len(names), names)
	}
	for _, name := range names {
		s, err := Preset(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		tr, err := Generate(s, 1, 200, 1e5)
		if err != nil {
			t.Fatalf("preset %s: generate: %v", name, err)
		}
		if tr.Jobs() != 200 {
			t.Fatalf("preset %s: %d jobs", name, tr.Jobs())
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestGenerateDeterministic: the trace is a pure function of
// (spec, seed, jobs, rate) — identical inputs give identical realizations
// and hashes; a different seed gives a different realization.
func TestGenerateDeterministic(t *testing.T) {
	spec, err := Preset("bursty")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(spec, 11, 3000, 5e5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 11, 3000, 5e5)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("same inputs, different hashes:\n%s\n%s", ha, hb)
	}
	if !strings.HasPrefix(ha, "sha256:") {
		t.Fatalf("hash %q lacks algorithm prefix", ha)
	}
	for i := range a.ArrivalNs {
		if a.ArrivalNs[i] != b.ArrivalNs[i] || a.Class[i] != b.Class[i] || a.Service[i] != b.Service[i] {
			t.Fatalf("job %d differs across identical generations", i)
		}
	}
	c, err := Generate(spec, 12, 3000, 5e5)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Fatal("different seeds produced the same trace hash")
	}
	// Arrivals must be non-decreasing (ReadTrace enforces this on load).
	for i := 1; i < a.Jobs(); i++ {
		if a.ArrivalNs[i] < a.ArrivalNs[i-1] {
			t.Fatalf("arrival %d goes backwards", i)
		}
	}
}

// TestTraceRoundTrip: write→read must reproduce the trace bit-for-bit and
// verify the content hash; tampered records must be rejected.
func TestTraceRoundTrip(t *testing.T) {
	spec, err := Preset("heavytail")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(spec, 21, 1500, 2e5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := tr.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := got.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("round-trip changed hash: %s vs %s", h1, h2)
	}
	if got.Seed != tr.Seed || got.Rate != tr.Rate || got.Jobs() != tr.Jobs() {
		t.Fatalf("round-trip changed provenance: %+v", got)
	}
	if got.Spec.Name != tr.Spec.Name {
		t.Fatalf("round-trip changed spec name: %q", got.Spec.Name)
	}

	// Tamper with one record's service time: the hash check must catch it.
	tampered := strings.Replace(buf.String(), `"s":`, `"s":1`, 1)
	if tampered == buf.String() {
		t.Fatal("tamper did not change the serialization")
	}
	if _, err := ReadTrace(strings.NewReader(tampered)); err == nil {
		t.Fatal("tampered trace accepted")
	}

	// File round-trip via the path helpers.
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := WriteTraceFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h3, _ := got2.Hash(); h3 != h1 {
		t.Fatalf("file round-trip changed hash")
	}
}

// TestLoadSpec: preset names and JSON files both resolve; garbage fails.
func TestLoadSpec(t *testing.T) {
	s, err := LoadSpec("diurnal")
	if err != nil || s.Name != "diurnal" {
		t.Fatalf("preset lookup: %v, %+v", err, s)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	body := `{"name":"mine","arrival":{"process":"poisson"},"classes":[{"weight":1,"service":{"law":"uniform","mean":32}}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadSpec(path)
	if err != nil || s2.Name != "mine" {
		t.Fatalf("file lookup: %v, %+v", err, s2)
	}
	if _, err := LoadSpec("no-such-spec-anywhere"); err == nil {
		t.Fatal("nonexistent spec accepted")
	}
}
