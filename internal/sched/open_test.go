package sched_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
)

// evenSchedule returns n arrival instants spaced evenly at rate arrivals per
// second, or n zeros — the unpaced stress mode — when rate is 0.
func evenSchedule(n int, rate float64) []int64 {
	s := make([]int64, n)
	if rate > 0 {
		for i := range s {
			s[i] = int64(float64(i) * 1e9 / rate)
		}
	}
	return s
}

// TestRunOpenServesEveryInjectedJob: the open-system run must serve every
// injected item exactly once on every implementation, across producer and
// batch configurations — the exact-accounting acceptance criterion. The
// rate is set high enough that pacing never dominates the test's runtime.
func TestRunOpenServesEveryInjectedJob(t *testing.T) {
	jobs := int64(20000)
	if testing.Short() {
		jobs = 4000
	}
	paced := evenSchedule(int(jobs), 4e6)
	for _, impl := range pqadapt.Impls() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			for _, cfg := range []sched.OpenConfig{
				{Workers: 2, Producers: 1, Schedule: paced},
				{Workers: 4, Producers: 3, Schedule: paced},
				{Workers: 4, Producers: 2, Schedule: paced, Batch: 8},
				{Workers: 2, Producers: 2, Schedule: evenSchedule(int(jobs), 0)}, // unpaced stress
			} {
				q, err := pqadapt.New(impl, 19)
				if err != nil {
					t.Fatal(err)
				}
				seen := make([]atomic.Int32, jobs)
				gen := func(seq int) sched.Item[int32] {
					id := int32(seq)
					return sched.Item[int32]{Key: scrambleKey(id), Value: id}
				}
				task := func(_ uint64, id int32, _ func(uint64, int32)) bool {
					seen[id].Add(1)
					return true
				}
				st := sched.RunOpen[int32](q, cfg, gen, task)
				name := fmt.Sprintf("workers=%d producers=%d batch=%d paced=%v",
					cfg.Workers, cfg.Producers, cfg.Batch, cfg.Schedule[1] > 0)
				if st.Injected != jobs {
					t.Fatalf("%s: injected %d of %d", name, st.Injected, jobs)
				}
				if st.Processed != jobs || st.Stale != 0 {
					t.Fatalf("%s: processed %d stale %d, want %d / 0",
						name, st.Processed, st.Stale, jobs)
				}
				var served int64
				for i := range seen {
					if n := seen[i].Load(); n > 1 {
						t.Fatalf("%s: item %d served %d times", name, i, n)
					} else if n == 1 {
						served++
					}
				}
				if served != jobs {
					t.Fatalf("%s: served %d distinct of %d", name, served, jobs)
				}
				if cfg.Batch > 1 && st.BufferedPops == 0 {
					t.Errorf("%s: batched run reported no buffered pops", name)
				}
				if _, _, ok := q.DeleteMin(); ok {
					t.Fatalf("%s: queue not empty after drain-to-zero epilogue", name)
				}
			}
		})
	}
}

// TestRunOpenTaskPushes: successors pushed by tasks (beyond the injected
// stream) must also be drained before the run returns — the epilogue drains
// the pending counter, not just the injected quota.
func TestRunOpenTaskPushes(t *testing.T) {
	q, err := pqadapt.New(pqadapt.ImplOneBeta75, 23)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 2000
	var followUps atomic.Int64
	gen := func(i int) sched.Item[int32] {
		return sched.Item[int32]{Key: scrambleKey(int32(i)), Value: int32(i)}
	}
	task := func(_ uint64, id int32, push func(uint64, int32)) bool {
		// Every injected item (id >= 0) spawns one follow-up (encoded < 0).
		if id >= 0 {
			push(scrambleKey(id), -id-1)
		} else {
			followUps.Add(1)
		}
		return true
	}
	st := sched.RunOpen[int32](q, sched.OpenConfig{
		Workers: 3, Producers: 1, Schedule: evenSchedule(jobs, 2e6), Batch: 4,
	}, gen, task)
	if st.Injected != jobs || st.Pushed != jobs || followUps.Load() != jobs {
		t.Fatalf("injected %d pushed %d followUps %d, want %d each",
			st.Injected, st.Pushed, followUps.Load(), jobs)
	}
	if st.Processed != 2*jobs {
		t.Fatalf("processed %d, want %d", st.Processed, 2*jobs)
	}
}

// TestRunOpenDeadlineCutsInjection: a deadline shorter than the injection
// schedule stops producers early; everything injected by then is still
// served exactly (Injected == Processed), just fewer than the quota.
func TestRunOpenDeadlineCutsInjection(t *testing.T) {
	q, err := pqadapt.New(pqadapt.ImplMultiQueue, 29)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(i int) sched.Item[int32] {
		return sched.Item[int32]{Key: uint64(i), Value: int32(i)}
	}
	task := func(_ uint64, _ int32, _ func(uint64, int32)) bool { return true }
	// 100,000 jobs at 50k/s would take 2s; the 50ms deadline must cut it.
	const jobs = 100_000
	st := sched.RunOpen[int32](q, sched.OpenConfig{
		Workers: 2, Producers: 2, Schedule: evenSchedule(jobs, 50000),
		Deadline: 50 * time.Millisecond,
	}, gen, task)
	if st.Injected >= jobs || st.Injected == 0 {
		t.Fatalf("deadline did not bound injection: %d", st.Injected)
	}
	if st.Processed != st.Injected {
		t.Fatalf("processed %d != injected %d: jobs lost at deadline shutdown",
			st.Processed, st.Injected)
	}
}

// TestRunOpenDeadlineNotOvershotAtLowRate: at a low rate the next scheduled
// arrival can lie far past the deadline; producers must exit without
// sleeping toward it, so the run returns promptly instead of overshooting
// the deadline by an unbounded interarrival gap.
func TestRunOpenDeadlineNotOvershotAtLowRate(t *testing.T) {
	q, err := pqadapt.New(pqadapt.ImplGlobalLock, 59)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(i int) sched.Item[int32] {
		return sched.Item[int32]{Key: uint64(i), Value: int32(i)}
	}
	task := func(_ uint64, _ int32, _ func(uint64, int32)) bool { return true }
	start := time.Now()
	// Interarrival gap 500ms vs a 30ms deadline: only the first arrival
	// lands, and a post-sleep-only check would block 500ms before noticing
	// the deadline.
	st := sched.RunOpen[int32](q, sched.OpenConfig{
		Workers: 1, Producers: 1, Schedule: evenSchedule(100, 2),
		Deadline: 30 * time.Millisecond,
	}, gen, task)
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("low-rate deadline run took %v, deadline overshot", elapsed)
	}
	if st.Injected != 1 || st.Processed != st.Injected {
		t.Errorf("injected %d processed %d, want 1 / 1", st.Injected, st.Processed)
	}
}

// TestRunOpenPacingRoughlyMatchesRate: over a run long enough to average
// out, the achieved injection rate must be within a factor of two of the
// schedule's rate (scheduling jitter allowed; systematic error not).
func TestRunOpenPacingRoughlyMatchesRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts wall-clock pacing; exactness is covered by the other RunOpen tests")
	}
	q, err := pqadapt.New(pqadapt.ImplMultiQueue, 37)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(i int) sched.Item[int32] {
		return sched.Item[int32]{Key: uint64(i), Value: int32(i)}
	}
	task := func(_ uint64, _ int32, _ func(uint64, int32)) bool { return true }
	const rate = 20000.0
	const jobs = 2000
	start := time.Now()
	st := sched.RunOpen[int32](q, sched.OpenConfig{
		Workers: 1, Producers: 2, Schedule: evenSchedule(jobs, rate),
	}, gen, task)
	elapsed := time.Since(start).Seconds()
	if st.Injected != jobs {
		t.Fatalf("injected %d of %d", st.Injected, jobs)
	}
	achieved := float64(jobs) / elapsed
	if achieved > 2*rate || achieved < rate/2 {
		t.Errorf("achieved rate %.0f/s, configured %.0f/s", achieved, rate)
	}
}

// TestRunOpenStridedIdentities: producers must jointly inject every index of
// the schedule exactly once — P producers striding over it, whatever their
// interleaving — and none before its due instant.
func TestRunOpenStridedIdentities(t *testing.T) {
	const jobs = 4000
	const producers = 3
	q, err := pqadapt.New(pqadapt.ImplGlobalLock, 9)
	if err != nil {
		t.Fatal(err)
	}
	schedule := evenSchedule(jobs, 1e6)
	seen := make([]atomic.Int32, jobs)
	var early atomic.Int64
	start := time.Now() // no later than RunOpen's own start
	gen := func(seq int) sched.Item[int32] {
		seen[seq].Add(1)
		if time.Since(start).Nanoseconds() < schedule[seq] {
			early.Add(1)
		}
		return sched.Item[int32]{Key: uint64(seq), Value: int32(seq)}
	}
	task := func(_ uint64, _ int32, _ func(uint64, int32)) bool { return true }
	st := sched.RunOpen[int32](q, sched.OpenConfig{
		Workers: 2, Producers: producers, Schedule: schedule,
	}, gen, task)
	if st.Injected != jobs || st.Processed != jobs {
		t.Fatalf("injected %d processed %d, want %d", st.Injected, st.Processed, jobs)
	}
	for seq := range seen {
		if n := seen[seq].Load(); n != 1 {
			t.Fatalf("seq %d injected %d times", seq, n)
		}
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d arrivals injected before their due instant", n)
	}
}
