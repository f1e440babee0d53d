package jobs

// Open-system job server: the jobs of a workload trace arrive on the
// trace's schedule while P workers serve them from the shared (relaxed)
// priority queue. Where the closed-system Run asks "how fast does a
// prefilled queue drain", this asks the question a serving system asks: at
// a sustained utilization ρ = λ·E[S]/P, what sojourn time (wait + service)
// does each priority class see, and what does relaxation cost the urgent
// classes? This is the real-world-constraints framing of Scully &
// Harchol-Balter (PAPERS.md): the rank bound becomes a latency penalty at a
// given load, not a drain-time delta. The trace (internal/workload) fixes
// the load: its arrival law, rate and service laws are chosen when it is
// generated, so this file only replays it and reports the ρ it offered.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"powerchoice/internal/sched"
	"powerchoice/internal/workload"
)

// OpenSpec configures an open-system job-server run.
type OpenSpec struct {
	// Workload is the trace to serve (required): each job's class, service
	// time and arrival instant, and the rate it was generated at. Two runs
	// of the same trace on any queue implementation serve the identical job
	// multiset on the identical schedule — the record→replay determinism
	// contract.
	Workload *workload.Trace
	// Producers is the number of arrival goroutines (default 1); producer p
	// paces the trace's arrivals p, p+Producers, ….
	Producers int
	// Deadline optionally stops injection early (see sched.OpenConfig).
	Deadline time.Duration
	// Elastic arms the executor's sampler-driven resize controller
	// (sched.ElasticConfig). Requires a queue that supports online resize
	// (sched.Resizable — the MultiQueue adapters); RunOpen rejects the
	// combination otherwise rather than silently running fixed-topology.
	Elastic sched.ElasticConfig
}

// OpenResult reports one open-system run.
type OpenResult struct {
	// Elapsed is the full wall time: injection window plus the
	// drain-to-zero epilogue.
	Elapsed time.Duration
	// OfferedRate is the trace's λ in jobs/second; AchievedRate is
	// Injected/Elapsed, which sags below OfferedRate when the system is
	// overloaded (the epilogue drains a standing queue) or the host cannot
	// pace that fast.
	OfferedRate  float64
	AchievedRate float64
	// Rho is the utilization λ·E[S]/P the trace offers, with E[S] the mean
	// of its realized service times and the spin calibration. The spin loop
	// is the only work rho accounts for; queue operations and measurement
	// overhead add load on top, so effective utilization is somewhat
	// higher — comparisons across implementations at equal Rho remain
	// apples-to-apples.
	Rho float64
	// SpinNsPerUnit is the calibrated wall-time cost of one spin unit Rho
	// was computed with.
	SpinNsPerUnit float64
	// Injected counts jobs actually injected (== Jobs unless Deadline cut
	// injection short). Every injected job is served before the run
	// returns.
	Injected int64
	// Inversions / InvWaiting count priority inversions exactly as in the
	// closed-system Result, except a job only becomes "waiting" at its
	// arrival instant.
	Inversions int64
	InvWaiting int64
	// PerClass reports per-class *sojourn* times (arrival → completion,
	// i.e. wait + service), not the closed-system drain latencies.
	PerClass []ClassStats
	// SojournP50Ms / SojournP99Ms are the percentiles of the pooled sojourn
	// samples across every class — the single number a capacity-planning SLO
	// ("p99 sojourn under X ms") binds to.
	SojournP50Ms float64
	SojournP99Ms float64
	// QLenMean is the exact time-average number of jobs in the system
	// (arrived and not yet completed) over Elapsed. The run starts and ends
	// empty, so by Little's law on that horizon the area under the
	// number-in-system curve is the sum of the sojourns: QLenMean is
	// Σ sojourn / Elapsed over the injected jobs.
	QLenMean float64
	// Stats are the executor's counters.
	Stats sched.OpenStats
}

// spinCal caches the spin-unit calibration: the conversion between the
// simulated service times (spin units) and wall time, needed to target a
// real utilization.
var spinCal struct {
	once sync.Once
	ns   float64
}

// SpinNsPerUnit measures (once, then caches) the wall-time cost in
// nanoseconds of one spin unit on this host. The minimum of a few reps is
// taken so a stray descheduling cannot inflate the calibration.
func SpinNsPerUnit() float64 {
	spinCal.once.Do(func() {
		const units = 1 << 21
		best := math.MaxFloat64
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			spin(units, uint64(rep)+1)
			if d := float64(time.Since(t0).Nanoseconds()) / units; d < best {
				best = d
			}
		}
		spinCal.ns = best
	})
	return spinCal.ns
}

// RunOpen serves spec.Workload's trace as an open system: spec.Producers
// goroutines inject its jobs on its schedule while `workers` goroutines
// serve, through the sched executor with bulk size `batch` (0 or 1 =
// unbatched). It returns when every injected job has been served — the
// executor's drain-to-zero epilogue guarantees none is lost in shared
// queues or worker-local batch buffers at shutdown.
func RunOpen(spec OpenSpec, q sched.Queue[int32], workers, batch int) (OpenResult, error) {
	if q == nil {
		return OpenResult{}, fmt.Errorf("jobs: nil queue")
	}
	tr := spec.Workload
	if tr == nil || tr.Jobs() < 1 {
		return OpenResult{}, fmt.Errorf("jobs: open run needs a non-empty workload trace")
	}
	if spec.Elastic.Enable {
		if _, ok := q.(sched.Resizable); !ok {
			return OpenResult{}, fmt.Errorf("jobs: elastic topology requested but the queue does not support online resize")
		}
	}
	if workers < 1 {
		workers = 1
	}
	n := tr.Jobs()

	// The trace's recorded rate, or its realized one when the header
	// carries none; ρ uses the empirical mean of the realized services, not
	// the spec's analytic mean, so it reports the load this trace offers.
	rate := tr.Rate
	if rate <= 0 && tr.ArrivalNs[n-1] > 0 {
		rate = float64(n) / (float64(tr.ArrivalNs[n-1]) / 1e9)
	}
	var services float64
	for _, s := range tr.Service {
		services += float64(s)
	}
	meanSvc := services / float64(n)
	nsPerUnit := SpinNsPerUnit()
	rho := rate * meanSvc * nsPerUnit / 1e9 / float64(workers)

	classPending := make([]atomic.Int64, tr.NumClasses())
	arrivedAt := make([]int64, n)   // ns since start; -1 = never injected
	completedAt := make([]int64, n) // ns since start; one writer per job
	for i := range arrivedAt {
		arrivedAt[i] = -1
	}
	var inversions, invWaiting atomic.Int64

	start := time.Now()
	// The executor's arrival index is the trace index, so each job keeps
	// its recorded identity whichever producer injects it.
	gen := func(id int) sched.Item[int32] {
		classPending[tr.Class[id]].Add(1)
		arrivedAt[id] = time.Since(start).Nanoseconds()
		return sched.Item[int32]{Key: tr.Key(id), Value: int32(id)}
	}
	task := func(_ uint64, id int32, _ func(uint64, int32)) bool {
		// Same serving path as the closed-system runs; here "pending" only
		// counts jobs that have *arrived* but not yet been dequeued.
		serveJob(int(tr.Class[id]), tr.Service[id], id, classPending, &inversions, &invWaiting)
		completedAt[id] = time.Since(start).Nanoseconds()
		return true
	}
	st := sched.RunOpen(q, sched.OpenConfig{
		Workers:   workers,
		Batch:     batch,
		Producers: spec.Producers,
		Schedule:  tr.ArrivalNs,
		Deadline:  spec.Deadline,
		Elastic:   spec.Elastic,
	}, gen, task)
	elapsed := time.Since(start)

	res := OpenResult{
		Elapsed:       elapsed,
		OfferedRate:   rate,
		AchievedRate:  float64(st.Injected) / elapsed.Seconds(),
		Rho:           rho,
		SpinNsPerUnit: nsPerUnit,
		Injected:      st.Injected,
		Inversions:    inversions.Load(),
		InvWaiting:    invWaiting.Load(),
		Stats:         st,
	}
	var sojourns int64
	for i, at := range arrivedAt {
		if at >= 0 {
			sojourns += completedAt[i] - at
		}
	}
	res.QLenMean = float64(sojourns) / float64(elapsed)
	res.PerClass, res.SojournP50Ms, res.SojournP99Ms = summarize(tr.NumClasses(), tr.Class, arrivedAt, completedAt)
	return res, nil
}
