package bench

import (
	"sync"
	"testing"
	"time"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
	"powerchoice/internal/workload"
)

// TestResizeStressLineup hammers every resizable line-up entry with the
// open-system executor while a resizer goroutine cycles the topology through
// grows and shrinks, and pins the exactness invariant across all of it:
// every injected item is served exactly once (Processed + Stale ==
// Injected + Pushed, and the queue drains to zero), no matter how many
// times the queue set was reconfigured mid-run. Liveness is implicit — the
// run terminates only when the pending counter hits zero, so a lost element
// (stranded in a retired queue) or a drain deadlock would hang the test,
// not pass it. The β = 0.75 entry additionally runs the β coin's
// single-queue draws across the epoch changes.
func TestResizeStressLineup(t *testing.T) {
	jobs := int64(120000)
	if raceEnabled || testing.Short() {
		jobs = 30000
	}
	impls := []pqadapt.Impl{pqadapt.ImplMultiQueue, pqadapt.ImplOneBeta75}
	for _, impl := range impls {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			t.Parallel()
			q, err := pqadapt.NewSpec(pqadapt.Spec{Impl: impl, Queues: 8, Seed: 977})
			if err != nil {
				t.Fatal(err)
			}
			r, ok := q.(sched.Resizable)
			if !ok {
				t.Fatalf("%s adapter does not implement sched.Resizable", impl)
			}

			// The resizer cycles through grows and shrinks for the whole run.
			// Unpaced injection (an all-zero schedule) keeps the queue
			// non-empty, so shrinks genuinely drain loaded retired queues into
			// survivors.
			stop := make(chan struct{})
			var resizerWG sync.WaitGroup
			resizerWG.Add(1)
			go func() {
				defer resizerWG.Done()
				sizes := []int{16, 4, 32, 8, 2, 24}
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := r.Resize(sizes[i%len(sizes)], 0); err != nil {
						t.Errorf("resize to %d: %v", sizes[i%len(sizes)], err)
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()

			var served int64
			var servedMu sync.Mutex
			st := sched.RunOpen[int32](q, sched.OpenConfig{
				Workers:   4,
				Producers: 2,
				Schedule:  make([]int64, jobs),
			}, func(seq int) sched.Item[int32] {
				return sched.Item[int32]{Key: uint64(seq), Value: int32(seq)}
			}, func(key uint64, value int32, push func(uint64, int32)) bool {
				servedMu.Lock()
				served++
				servedMu.Unlock()
				return true
			})
			close(stop)
			resizerWG.Wait()

			if st.Injected != jobs {
				t.Fatalf("injected %d of %d jobs", st.Injected, jobs)
			}
			if got := st.Processed + st.Stale; got != st.Injected+st.Pushed {
				t.Fatalf("exactness broken: Processed(%d) + Stale(%d) = %d, want Injected(%d) + Pushed(%d) = %d",
					st.Processed, st.Stale, got, st.Injected, st.Pushed, st.Injected+st.Pushed)
			}
			if served != jobs {
				t.Fatalf("task ran %d times for %d injected jobs", served, jobs)
			}
			if n := q.Len(); n != 0 {
				t.Fatalf("%d elements left in the queue after the drain epilogue", n)
			}
			if r.Resizes() == 0 {
				t.Fatal("the resizer never completed a resize; the stress run did not stress")
			}
			t.Logf("%s: %d jobs through %d resizes (final epoch %d, %d queues)",
				impl, jobs, r.Resizes(), r.Epoch(), r.NumQueues())
		})
	}
}

// TestServeElasticEndToEnd drives the full serve harness — workload trace,
// jobs runner, pqadapt, sched executor — with the elastic controller armed
// and a watermark band low enough that any backlog at all demands growth.
// It pins the plumbing, not the control trajectory: the elastic fields
// reach the result populated (FinalQueues is non-zero exactly when the
// controller was armed) and the final size respects the configured range.
func TestServeElasticEndToEnd(t *testing.T) {
	spec, err := workload.Preset("poisson")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(ServeSpec{
		Impl:     pqadapt.ImplMultiQueue,
		Queues:   4,
		Threads:  4,
		Jobs:     4000,
		Workload: spec,
		Rho:      0.6,
		Seed:     31,
		Elastic: sched.ElasticConfig{
			Enable:    true,
			MinQueues: 2,
			MaxQueues: 16,
			HighWater: 0.05,
			LowWater:  0.01,
			Window:    2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalQueues == 0 {
		t.Fatal("controller was armed but FinalQueues is zero")
	}
	if res.FinalQueues < 2 || res.FinalQueues > 16 {
		t.Fatalf("final queue count %d escaped the configured [2, 16] range", res.FinalQueues)
	}
	if res.Injected != 4000 {
		t.Fatalf("injected %d of 4000 jobs", res.Injected)
	}
	if res.Epochs != uint64(res.Resizes) {
		t.Fatalf("epoch %d does not match resize count %d on a fresh queue", res.Epochs, res.Resizes)
	}
	t.Logf("elastic serve: %d resizes -> %d queues (epoch %d)", res.Resizes, res.FinalQueues, res.Epochs)
}
