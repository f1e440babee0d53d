package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Trace is a compiled workload realization: the merged virtual arrival
// schedule plus each job's class and service time, with the provenance
// (spec, seed, rate) that produced it. A trace is the replayable artifact —
// powerbench record writes one, powerbench replay re-runs it through any
// queue implementation or topology, and Hash gives it an identity.
type Trace struct {
	// Spec, Seed and Rate are the generation inputs (Rate in jobs/second).
	// A trace loaded from disk carries them verbatim from its header.
	Spec Spec
	Seed uint64
	Rate float64
	// ArrivalNs is the non-decreasing virtual arrival schedule in
	// nanoseconds from run start; arrival i is job i.
	ArrivalNs []int64
	// Class and Service are job i's priority class and service time (spin
	// units).
	Class   []uint8
	Service []uint32
}

// Jobs returns the number of arrivals in the trace.
func (tr *Trace) Jobs() int { return len(tr.ArrivalNs) }

// NumClasses returns the spec's priority-class count.
func (tr *Trace) NumClasses() int { return len(tr.Spec.Classes) }

// Key returns job i's queue key: class in the high bits, arrival order in
// the low bits — strict priority with FIFO tie-break. Both job-server modes,
// jobs.Run and jobs.RunOpen, key their jobs with it.
func (tr *Trace) Key(i int) uint64 {
	return uint64(tr.Class[i])<<32 | uint64(uint32(i))
}

// ClassJobs returns the per-class job counts — the multiset identity the
// record→replay determinism check compares.
func (tr *Trace) ClassJobs() []int64 {
	out := make([]int64, tr.NumClasses())
	for _, c := range tr.Class {
		out[c]++
	}
	return out
}

// Hash returns the trace's content identity: "sha256:<hex>" over the
// generation provenance (schema version, canonical spec JSON, seed, rate,
// job count) and the raw job records. It is independent of the serialized
// representation, so a written-then-read trace hashes identically to the
// in-memory original.
func (tr *Trace) Hash() (string, error) {
	specJSON, err := json.Marshal(&tr.Spec)
	if err != nil {
		return "", fmt.Errorf("workload: hashing spec: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "powerchoice-trace v%d seed=%d rate=%x jobs=%d spec=%s\n",
		SchemaVersion, tr.Seed, tr.Rate, tr.Jobs(), specJSON)
	var rec [13]byte
	for i := range tr.ArrivalNs {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(tr.ArrivalNs[i]))
		rec[8] = tr.Class[i]
		binary.LittleEndian.PutUint32(rec[9:13], tr.Service[i])
		h.Write(rec[:])
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// traceHeader is the first JSONL line of a serialized trace.
type traceHeader struct {
	Format  string  `json:"format"`
	Version int     `json:"version"`
	Seed    uint64  `json:"seed"`
	Rate    float64 `json:"rate"`
	Jobs    int     `json:"jobs"`
	Hash    string  `json:"hash"`
	Spec    Spec    `json:"spec"`
}

// traceFormat is the header's format marker.
const traceFormat = "powerchoice-trace"

// maxTracePrealloc is the most job records ReadTrace reserves room for on
// the header's word alone.
const maxTracePrealloc = 1 << 16

// traceRecord is one job line: virtual arrival time (ns), class, service
// (spin units). Short keys keep multi-million-job traces tractable.
type traceRecord struct {
	T int64  `json:"t"`
	C uint8  `json:"c"`
	S uint32 `json:"s"`
}

// WriteTrace serializes the trace as JSONL: a header line carrying the spec,
// seed, rate, schema version and content hash, then one record line per
// job. The hash is computed from the in-memory trace before writing, so
// ReadTrace can verify integrity end to end.
func WriteTrace(w io.Writer, tr *Trace) error {
	if len(tr.ArrivalNs) != len(tr.Class) || len(tr.Class) != len(tr.Service) {
		return fmt.Errorf("workload: ragged trace: %d/%d/%d arrivals/classes/services",
			len(tr.ArrivalNs), len(tr.Class), len(tr.Service))
	}
	hash, err := tr.Hash()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{
		Format: traceFormat, Version: SchemaVersion,
		Seed: tr.Seed, Rate: tr.Rate, Jobs: tr.Jobs(), Hash: hash, Spec: tr.Spec,
	}); err != nil {
		return err
	}
	for i := range tr.ArrivalNs {
		if err := enc.Encode(traceRecord{T: tr.ArrivalNs[i], C: tr.Class[i], S: tr.Service[i]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL trace, validates the schema version and spec, and
// verifies the header's content hash against the records actually read — a
// truncated or edited trace fails loudly instead of replaying silently
// wrong.
func ReadTrace(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	var hdr traceHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if hdr.Format != traceFormat {
		return nil, fmt.Errorf("workload: not a trace file (format %q)", hdr.Format)
	}
	if hdr.Version != SchemaVersion {
		return nil, fmt.Errorf("workload: trace schema version %d, this build reads %d", hdr.Version, SchemaVersion)
	}
	if err := hdr.Spec.Validate(); err != nil {
		return nil, err
	}
	if hdr.Jobs < 1 {
		return nil, fmt.Errorf("workload: trace declares %d jobs", hdr.Jobs)
	}
	// The header's count is unchecked until the records are read, so it
	// sizes at most maxTracePrealloc records up front and append grows the
	// rest: a forged count must fail at the records, not in make.
	prealloc := min(hdr.Jobs, maxTracePrealloc)
	tr := &Trace{
		Spec: hdr.Spec, Seed: hdr.Seed, Rate: hdr.Rate,
		ArrivalNs: make([]int64, 0, prealloc),
		Class:     make([]uint8, 0, prealloc),
		Service:   make([]uint32, 0, prealloc),
	}
	classes := tr.NumClasses()
	var prev int64
	for i := 0; i < hdr.Jobs; i++ {
		var rec traceRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("workload: trace record %d of %d: %w", i, hdr.Jobs, err)
		}
		if rec.T < prev {
			return nil, fmt.Errorf("workload: trace record %d arrives at %dns before its predecessor (%dns)", i, rec.T, prev)
		}
		if int(rec.C) >= classes {
			return nil, fmt.Errorf("workload: trace record %d class %d outside the spec's %d classes", i, rec.C, classes)
		}
		prev = rec.T
		tr.ArrivalNs = append(tr.ArrivalNs, rec.T)
		tr.Class = append(tr.Class, rec.C)
		tr.Service = append(tr.Service, rec.S)
	}
	hash, err := tr.Hash()
	if err != nil {
		return nil, err
	}
	if hash != hdr.Hash {
		return nil, fmt.Errorf("workload: trace content hash mismatch: header %s, records %s", hdr.Hash, hash)
	}
	return tr, nil
}

// WriteTraceFile writes the trace to path (see WriteTrace).
func WriteTraceFile(path string, tr *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTraceFile reads and verifies the trace at path (see ReadTrace).
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}
