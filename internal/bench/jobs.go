package bench

import (
	"time"

	"powerchoice/internal/jobs"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/workload"
)

// JobsSpec configures one priority job-server drain (powerbench jobs).
type JobsSpec struct {
	// Impl selects the queue implementation serving as the scheduler.
	Impl pqadapt.Impl
	// Queues fixes the internal queue count of MultiQueue implementations;
	// 0 derives it from the host.
	Queues int
	// Workload is the trace whose jobs are drained; its arrival instants
	// are ignored.
	Workload *workload.Trace
	// Threads is the server worker count.
	Threads int
	// Batch is the executor's bulk-operation size k (0 or 1 = unbatched).
	// Batching a job server trades scheduling quality for throughput: up to
	// k−1 jobs per worker wait in local buffers where higher-priority jobs
	// cannot overtake them (see jobs.Run).
	Batch int
	// Seed fixes queue randomness.
	Seed uint64
}

// JobsResult reports one drain run.
type JobsResult struct {
	Elapsed time.Duration
	// MJobs is drain throughput in million jobs per second.
	MJobs float64
	// Inversions / InvWaiting are the priority-inversion count and
	// magnitude (see jobs.Result).
	Inversions int64
	InvWaiting int64
	// BufferedPops counts jobs served from worker-local batch buffers
	// (zero when unbatched; see sched.Stats.BufferedPops).
	BufferedPops int64
	// PerClass holds per-priority-class completion latencies.
	PerClass []jobs.ClassStats
	// Topology records what the measured queue resolved to.
	Topology pqadapt.Topology
}

// Jobs times one job-server drain.
func Jobs(spec JobsSpec) (JobsResult, error) {
	q, err := pqadapt.NewSpec(pqadapt.Spec{Impl: spec.Impl, Queues: spec.Queues, Seed: spec.Seed})
	if err != nil {
		return JobsResult{}, err
	}
	topology := pqadapt.TopologyOf(spec.Impl, q)
	res, err := jobs.Run(spec.Workload, q, spec.Threads, spec.Batch)
	if err != nil {
		return JobsResult{}, err
	}
	return JobsResult{
		Elapsed:      res.Elapsed,
		MJobs:        float64(spec.Workload.Jobs()) / res.Elapsed.Seconds() / 1e6,
		Inversions:   res.Inversions,
		InvWaiting:   res.InvWaiting,
		BufferedPops: res.Stats.BufferedPops,
		PerClass:     res.PerClass,
		Topology:     topology,
	}, nil
}
