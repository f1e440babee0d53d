package workload

import (
	"fmt"

	"powerchoice/internal/xrand"
)

// Trace transforms: replay a recorded trace at a different load without
// regenerating it. ScaleRate compresses or stretches the
// arrival schedule (same jobs, same order, different rate); Thin keeps each
// job independently with probability p (a Bernoulli subsample — thinning a
// Poisson process of rate λ yields a Poisson process of rate p·λ, and the
// analogous rate reduction holds in expectation for any arrival law).
// Both return a new Trace sharing no slices with the receiver, so the
// original stays replayable; the result's content hash differs automatically
// because the hash covers the records and the rate (see Trace.Hash) — the
// transformed trace has its own identity, as provenance requires.

// thinSeedTag domain-separates the thinning coin flips from every other
// stream family derived from the trace's seed (see xrand.Tag).
const thinSeedTag = "workload.thin"

// ScaleRate returns a copy of the trace with every arrival instant divided
// by f and the recorded rate multiplied by f: f > 1 compresses the schedule
// (higher load), f < 1 stretches it. Classes and service times are
// untouched, so the job population is identical; only the offered load
// moves.
func (tr *Trace) ScaleRate(f float64) (*Trace, error) {
	if f <= 0 {
		return nil, fmt.Errorf("workload: rate scale factor %v, need > 0", f)
	}
	out := &Trace{
		Spec: tr.Spec, Seed: tr.Seed, Rate: tr.Rate * f,
		ArrivalNs: make([]int64, len(tr.ArrivalNs)),
		Class:     append([]uint8(nil), tr.Class...),
		Service:   append([]uint32(nil), tr.Service...),
	}
	for i, t := range tr.ArrivalNs {
		// Dividing a non-decreasing schedule by a positive constant keeps it
		// non-decreasing (int64 truncation is monotone), so the result still
		// passes ReadTrace's ordering check after a write/read round trip.
		out.ArrivalNs[i] = int64(float64(t) / f)
	}
	return out, nil
}

// Thin returns a copy of the trace keeping each job independently with
// probability p, drawn from a deterministic stream tagged off the trace's
// seed — the same (trace, p) always keeps the same subset. The recorded rate
// scales by p (exact for Poisson arrivals, in expectation otherwise). Job
// identities compact: kept job j becomes arrival j' in recording order, so
// Key's FIFO tie-break stays consistent with the thinned schedule.
func (tr *Trace) Thin(p float64) (*Trace, error) {
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("workload: thinning probability %v outside (0, 1]", p)
	}
	out := &Trace{Spec: tr.Spec, Seed: tr.Seed, Rate: tr.Rate * p}
	rng := xrand.NewSource(xrand.Tag(tr.Seed, thinSeedTag))
	for i := range tr.ArrivalNs {
		// One draw per job whatever p is, so thinner and thicker subsamples
		// of the same trace nest: the jobs Thin(0.2) keeps are a subset of
		// the jobs Thin(0.5) keeps.
		u := rng.Float64()
		if u >= p {
			continue
		}
		out.ArrivalNs = append(out.ArrivalNs, tr.ArrivalNs[i])
		out.Class = append(out.Class, tr.Class[i])
		out.Service = append(out.Service, tr.Service[i])
	}
	if len(out.ArrivalNs) == 0 {
		return nil, fmt.Errorf("workload: thinning with p=%v kept none of the %d jobs", p, tr.Jobs())
	}
	return out, nil
}
