package bench

import (
	"fmt"
	"time"

	"powerchoice/internal/jobs"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/workload"
)

// ServeSpec configures one open-system job-server measurement (powerbench
// serve and replay): a workload trace served by Threads workers through the
// chosen queue implementation.
type ServeSpec struct {
	// Impl selects the queue implementation serving as the scheduler.
	Impl pqadapt.Impl
	// Queues fixes the internal queue count of MultiQueue implementations;
	// 0 derives it from the host.
	Queues int
	// Trace is the workload replayed (required): its arrival instants,
	// classes and service times, generated at one rate, fix the offered
	// load.
	Trace *workload.Trace
	// Producers is the arrival goroutine count (0 = 1).
	Producers int
	// Threads is the serving worker count.
	Threads int
	// Batch is the executor's bulk-operation size k (0 or 1 = unbatched).
	Batch int
	// Deadline optionally caps the injection window.
	Deadline time.Duration
	// Seed fixes the queue's internal randomness.
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
	// Injected counts jobs actually injected (every job of the trace unless
	// the deadline cut injection); every injected job was served before
	// return.
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
	// PerClass holds per-class sojourn (wait + service) percentiles.
	PerClass []jobs.ClassStats
	// Workload is the spec name of the run's trace. The trace's content
	// identity is its Hash, which callers take once per trace.
	Workload string
	// ClassRates are per-class offered arrival rates (jobs/second, the total
	// rate split by class weight share).
	ClassRates []float64
	// Topology records what the measured queue resolved to.
	Topology pqadapt.Topology
}

// Serve runs one open-system job-server measurement.
func Serve(spec ServeSpec) (ServeResult, error) {
	if spec.Threads < 1 {
		return ServeResult{}, fmt.Errorf("bench: threads %d < 1", spec.Threads)
	}
	q, err := pqadapt.NewSpec(pqadapt.Spec{Impl: spec.Impl, Queues: spec.Queues, Seed: spec.Seed})
	if err != nil {
		return ServeResult{}, err
	}
	topology := pqadapt.TopologyOf(spec.Impl, q)
	res, err := jobs.RunOpen(jobs.OpenSpec{
		Workload:  spec.Trace,
		Producers: spec.Producers,
		Deadline:  spec.Deadline,
	}, q, spec.Threads, spec.Batch)
	if err != nil {
		return ServeResult{}, err
	}
	shares := spec.Trace.Spec.ClassShares()
	classRates := make([]float64, len(shares))
	for i, s := range shares {
		classRates[i] = res.OfferedRate * s
	}
	return ServeResult{
		Elapsed:      res.Elapsed,
		OfferedRate:  res.OfferedRate,
		AchievedRate: res.AchievedRate,
		Rho:          res.Rho,
		Injected:     res.Injected,
		Inversions:   res.Inversions,
		InvWaiting:   res.InvWaiting,
		BufferedPops: res.Stats.BufferedPops,
		QLenMean:     res.QLenMean,
		PerClass:     res.PerClass,
		Workload:     spec.Trace.Spec.Name,
		ClassRates:   classRates,
		Topology:     topology,
	}, nil
}
