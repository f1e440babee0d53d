package workload

import "fmt"

// ScaleRate returns a copy of the trace with every arrival instant divided
// by f and the recorded rate multiplied by f: f > 1 compresses the schedule
// (higher load), f < 1 stretches it. Classes and service times are
// untouched, so the job population is identical; only the offered load
// moves. The copy shares no slices with the receiver, so the original
// stays replayable, and its content hash differs because the hash covers
// the records and the rate (see Trace.Hash). perfbench's serve-bursty
// workload rescales each generated trace with it so the trace offers
// exactly its target rate.
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
