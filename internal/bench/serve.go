package bench

import (
	"fmt"
	"time"

	"powerchoice/internal/jobs"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
	"powerchoice/internal/workload"
)

// ServeSpec configures one open-system job-server measurement (powerbench
// serve): a workload trace — generated from a declarative spec at a target
// utilization ρ (or an explicit rate), or loaded — served by Threads
// workers through the chosen queue implementation.
type ServeSpec struct {
	// Impl selects the queue implementation serving as the scheduler.
	Impl pqadapt.Impl
	// Queues fixes the internal queue count of MultiQueue implementations;
	// 0 derives it from the host.
	Queues int
	// Jobs is the length of the trace generated from Workload.
	Jobs int
	// Workload generates the job stream from a declarative spec (arrival
	// shape + per-class service laws): a deterministic trace is compiled at
	// the resolved rate (explicit Rate, or derived from Rho via the spec's
	// analytic mean service time) and replayed. One of Workload and Trace
	// is required.
	Workload *workload.Spec
	// Trace, when non-nil, replays a pre-generated trace verbatim (its
	// recorded rate and spec win over everything above) — powerbench replay.
	// Takes precedence over Workload.
	Trace *workload.Trace
	// Rate is the arrival rate λ in jobs/second; 0 derives it from Rho.
	Rate float64
	// Rho is the target utilization ρ = λ·E[S]/Threads (used when Rate is
	// 0). ρ ≥ 1 configures deliberate overload.
	Rho float64
	// Producers is the arrival goroutine count (0 = 1).
	Producers int
	// Threads is the serving worker count.
	Threads int
	// Batch is the executor's bulk-operation size k (0 or 1 = unbatched).
	Batch int
	// Deadline optionally caps the injection window.
	Deadline time.Duration
	// Elastic arms the sampler-driven resize controller on the serving queue
	// (sched.ElasticConfig): the topology grows/shrinks with the sampled
	// backlog between MinQueues and MaxQueues. MultiQueue implementations
	// only — Serve rejects the combination otherwise.
	Elastic sched.ElasticConfig
	// Seed fixes the generated trace and the queue's internal randomness.
	Seed uint64
}

// ServeResult reports one open-system measurement.
type ServeResult struct {
	Elapsed time.Duration
	// OfferedRate / AchievedRate are the trace's λ and Injected/Elapsed.
	OfferedRate  float64
	AchievedRate float64
	// Rho is the utilization the trace offered (see jobs.OpenResult.Rho).
	Rho float64
	// Injected counts jobs actually injected (== Jobs unless the deadline
	// cut injection); every injected job was served before return.
	Injected int64
	// Inversions / InvWaiting are the priority-inversion count and
	// magnitude (see jobs.Result).
	Inversions int64
	InvWaiting int64
	// BufferedPops counts jobs served from worker-local batch buffers.
	BufferedPops int64
	// QLenMean is the exact time-average number of jobs in the system (see
	// jobs.OpenResult.QLenMean).
	QLenMean float64
	// SojournP50Ms / SojournP99Ms are the pooled (all-class) sojourn
	// percentiles — the numbers a capacity-planning SLO binds to.
	SojournP50Ms float64
	SojournP99Ms float64
	// PerClass holds per-class sojourn (wait + service) percentiles.
	PerClass []jobs.ClassStats
	// Workload is the spec name of the run's trace. The trace's content
	// identity is its Hash, which callers take once per trace.
	Workload string
	// ClassRates are per-class offered arrival rates (jobs/second, the total
	// rate split by class weight share).
	ClassRates []float64
	// Trace is the trace the run generated (Workload) or replayed (Trace).
	Trace *workload.Trace
	// SpinNsPerUnit is the calibrated spin-unit cost used for ρ↔λ.
	SpinNsPerUnit float64
	// Topology records what the measured queue resolved to (its
	// construction-time shape; see FinalQueues for where a resize left it).
	Topology pqadapt.Topology
	// Elastic accounting, meaningful only when the controller was armed:
	// Resizes counts reconfigurations during the run, Epochs is the final
	// topology version, FinalQueues the final queue count (always non-zero
	// when armed, so "armed but stable" is distinguishable from "not
	// elastic").
	Resizes     int64
	Epochs      uint64
	FinalQueues int
}

// ResolveTrace compiles the spec's workload into the trace Serve would run:
// a loaded Trace verbatim, or a Workload spec generated at the resolved rate
// (explicit Rate, or derived from Rho through the spec's analytic mean
// service time and the host's spin calibration — the one place a target ρ
// becomes a rate λ). powerbench record uses it directly.
func (spec *ServeSpec) ResolveTrace() (*workload.Trace, error) {
	if spec.Trace != nil {
		return spec.Trace, nil
	}
	if spec.Workload == nil {
		return nil, fmt.Errorf("bench: serve needs a Workload spec or a Trace")
	}
	rate := spec.Rate
	if rate <= 0 {
		if spec.Rho <= 0 {
			return nil, fmt.Errorf("bench: serve needs Rate or Rho")
		}
		if spec.Threads < 1 {
			return nil, fmt.Errorf("bench: threads %d < 1", spec.Threads)
		}
		serviceSec := spec.Workload.MeanService() * jobs.SpinNsPerUnit() / 1e9
		rate = spec.Rho * float64(spec.Threads) / serviceSec
	}
	return workload.Generate(spec.Workload, spec.Seed, spec.Jobs, rate)
}

// Serve runs one open-system job-server measurement.
func Serve(spec ServeSpec) (ServeResult, error) {
	if spec.Threads < 1 {
		return ServeResult{}, fmt.Errorf("bench: threads %d < 1", spec.Threads)
	}
	tr, err := spec.ResolveTrace()
	if err != nil {
		return ServeResult{}, err
	}
	q, err := pqadapt.NewSpec(pqadapt.Spec{Impl: spec.Impl, Queues: spec.Queues, Seed: spec.Seed})
	if err != nil {
		return ServeResult{}, err
	}
	topology := pqadapt.TopologyOf(spec.Impl, q)
	res, err := jobs.RunOpen(jobs.OpenSpec{
		Workload:  tr,
		Producers: spec.Producers,
		Deadline:  spec.Deadline,
		Elastic:   spec.Elastic,
	}, q, spec.Threads, spec.Batch)
	if err != nil {
		return ServeResult{}, err
	}
	shares := tr.Spec.ClassShares()
	classRates := make([]float64, len(shares))
	for i, s := range shares {
		classRates[i] = res.OfferedRate * s
	}
	return ServeResult{
		Elapsed:       res.Elapsed,
		OfferedRate:   res.OfferedRate,
		AchievedRate:  res.AchievedRate,
		Rho:           res.Rho,
		Injected:      res.Injected,
		Inversions:    res.Inversions,
		InvWaiting:    res.InvWaiting,
		BufferedPops:  res.Stats.BufferedPops,
		QLenMean:      res.QLenMean,
		SojournP50Ms:  res.SojournP50Ms,
		SojournP99Ms:  res.SojournP99Ms,
		PerClass:      res.PerClass,
		Workload:      tr.Spec.Name,
		ClassRates:    classRates,
		Trace:         tr,
		SpinNsPerUnit: res.SpinNsPerUnit,
		Topology:      topology,
		Resizes:       res.Stats.Resizes,
		Epochs:        res.Stats.Epochs,
		FinalQueues:   res.Stats.FinalQueues,
	}, nil
}
