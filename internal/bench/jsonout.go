package bench

import (
	"encoding/json"
	"runtime"

	"powerchoice/internal/pqadapt"
)

// Host records the machine a benchmark ran on. Every JSON report carries it
// so that entries in the BENCH_*.json perf trajectory remain interpretable
// when the hardware underneath them changes.
type Host struct {
	// GOMAXPROCS is the Go scheduler's processor count at report time —
	// the P that queue-count derivation and thread sweeps key off.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count.
	NumCPU int `json:"num_cpu"`
	// GoVersion is the runtime's version string.
	GoVersion string `json:"go_version"`
	// OS and Arch identify the platform.
	OS   string `json:"os"`
	Arch string `json:"arch"`
}

// CurrentHost captures the running machine.
func CurrentHost() Host {
	return Host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// Row is one measurement in a JSON report: the resolved configuration it
// ran with plus whichever metric block the command produced. Metric fields
// not applicable to the command are omitted.
type Row struct {
	// Impl names the implementation; empty for anonymous β-sweep rows.
	Impl string `json:"impl,omitempty"`
	// Beta, Queues and Choices are the resolved MultiQueue topology
	// (absent for implementations without internal queues). Beta is a
	// pointer so that β = 0 — a legitimate sweep point — survives
	// serialisation.
	Beta    *float64 `json:"beta,omitempty"`
	Queues  int      `json:"queues,omitempty"`
	Choices int      `json:"choices,omitempty"`
	// Threads is the worker count of the measurement.
	Threads int `json:"threads,omitempty"`
	// Batch is the bulk-operation size k the measurement ran with; absent
	// (0) means the classic single-op loop. BufferedPops counts elements
	// served from worker-local batch buffers — the batching slack (see
	// EXPERIMENTS.md on comparing batched rows against pre-batch history).
	Batch        int   `json:"batch,omitempty"`
	BufferedPops int64 `json:"buffered_pops,omitempty"`

	// Throughput metrics (powerbench throughput). Ops counts completed
	// operations only; EmptyPops reports failed pops separately (they were
	// wrongly folded into Ops before PR 2 — see EXPERIMENTS.md on
	// comparability with earlier BENCH_*.json files).
	MOps      float64 `json:"mops,omitempty"`
	Ops       int64   `json:"ops,omitempty"`
	EmptyPops int64   `json:"empty_pops,omitempty"`

	// Rank-quality metrics (powerbench rank / sweep).
	MeanRank float64 `json:"mean_rank,omitempty"`
	P50      float64 `json:"p50,omitempty"`
	P99      float64 `json:"p99,omitempty"`
	MaxRank  float64 `json:"max_rank,omitempty"`
	Removals int     `json:"removals,omitempty"`

	// SSSP and A* metrics (powerbench sssp / astar). WastedPops counts
	// stale or pruned pops, the wasted work of relaxation.
	Millis     float64 `json:"ms,omitempty"`
	Speedup    float64 `json:"speedup_vs_seq,omitempty"`
	WastedPops int64   `json:"wasted_pops,omitempty"`

	// A*-only metrics (powerbench astar): nodes expanded by the parallel
	// search vs the sequential baseline, and the path cost found.
	Expanded    int64  `json:"expanded,omitempty"`
	SeqExpanded int64  `json:"seq_expanded,omitempty"`
	PathCost    uint64 `json:"path_cost,omitempty"`

	// Job-server metrics (powerbench jobs). Class is a pointer so that
	// class 0 — the most urgent — survives serialisation; summary rows
	// leave it nil. Latency percentiles are milliseconds from drain start.
	Class      *int    `json:"class,omitempty"`
	Jobs       int64   `json:"jobs,omitempty"`
	MJobs      float64 `json:"mjobs,omitempty"`
	Inversions int64   `json:"inversions,omitempty"`
	InvWaiting int64   `json:"inv_waiting,omitempty"`
	P50Ms      float64 `json:"p50_ms,omitempty"`
	P99Ms      float64 `json:"p99_ms,omitempty"`

	// Open-system job-server metrics (powerbench serve). Rho is the target
	// utilization λ·E[S]/P, Rate the offered arrival rate in jobs/second.
	// Sojourn percentiles are milliseconds from a job's arrival to its
	// completion (wait + service) — not comparable with the closed-system
	// p50_ms/p99_ms drain latencies (see EXPERIMENTS.md). QLenMean is the
	// exact time-average number of jobs in the system, Σ sojourn / elapsed
	// by Little's law.
	Rho          float64 `json:"rho,omitempty"`
	Rate         float64 `json:"rate,omitempty"`
	SojournP50Ms float64 `json:"sojourn_p50_ms,omitempty"`
	SojournP99Ms float64 `json:"sojourn_p99_ms,omitempty"`
	QLenMean     float64 `json:"qlen_mean,omitempty"`

	// Workload provenance (powerbench jobs / serve / record / replay). Workload names the spec ("bursty", a file's spec name, …),
	// TraceHash the sha256 content identity of the generated or replayed
	// trace — record→replay determinism compares it. ClassRate is a
	// per-class row's offered arrival rate in jobs/second (total rate × the
	// class's weight share). Every serve row carries them and every jobs
	// summary row carries Workload; older serve and jobs rows without them
	// come from job models neither command has any more (EXPERIMENTS.md).
	Workload  string  `json:"workload,omitempty"`
	TraceHash string  `json:"trace_hash,omitempty"`
	ClassRate float64 `json:"class_rate,omitempty"`

	// Calibration metrics (powerbench calibrate): the measured wall-time
	// cost of one spin unit on this host, the constant behind every ρ↔λ
	// conversion.
	SpinNsPerUnit float64 `json:"spin_ns_per_unit,omitempty"`

	// LockFails is the try-lock loss count summed over every worker handle
	// of a throughput row (see core.HandleStats); absent when zero.
	LockFails int64 `json:"lock_fails,omitempty"`
}

// SetTopology copies a resolved topology into the row.
func (r *Row) SetTopology(top pqadapt.Topology) {
	if string(top.Impl) != "" {
		r.Impl = string(top.Impl)
	}
	r.Queues = top.Queues
	r.Choices = top.Choices
	if top.Queues > 0 {
		beta := top.Beta
		r.Beta = &beta
	}
}

// Report is the machine-readable output of one powerbench invocation. Its
// JSON form is stable and deterministic (struct-ordered keys, indented), so
// reports can be appended to the repository's BENCH_*.json history and
// diffed across commits.
type Report struct {
	// Command is the powerbench subcommand that produced the report.
	Command string `json:"command"`
	// Seed is the root seed every measurement derived its randomness from.
	Seed uint64 `json:"seed"`
	// Host is the machine the numbers were measured on.
	Host Host `json:"host"`
	// Rows are the measurements, in emission order.
	Rows []Row `json:"rows"`
}

// NewReport starts a report for the given subcommand on this host.
func NewReport(command string, seed uint64) *Report {
	return &Report{Command: command, Seed: seed, Host: CurrentHost(), Rows: []Row{}}
}

// Add appends one measurement row.
func (r *Report) Add(row Row) { r.Rows = append(r.Rows, row) }

// JSON renders the report, indented, with a trailing newline.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
