package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/xrand"
)

const (
	// queues is n for every workload, pinned so the topology does not
	// follow GOMAXPROCS.
	queues = pqadapt.PaperQueues
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// window is one closed-loop workload window; the reference windows
	// around it last as long.
	window = 200 * time.Millisecond
)

// newMultiQueue builds the multiqueue line-up entry (β = 1, d = 2) at n =
// queues. The queue's streams are domain-separated from the benchmark's.
func newMultiQueue(seed uint64) (pqadapt.Queue, error) {
	return pqadapt.NewSpec(pqadapt.Spec{
		Impl:   pqadapt.ImplMultiQueue,
		Queues: queues,
		Seed:   xrand.Tag(seed, "perfbench.queue"),
	})
}

// sample is one timed step with the reference rate measured around it.
type sample struct {
	items   float64
	elapsed time.Duration
	ref     float64 // mean rate of the reference windows before and after, items/s
}

func (s sample) rate() float64 { return s.items / s.elapsed.Seconds() }

// corrected returns the step's rate at the nominal reference rate.
func (s sample) corrected(nominal float64) float64 { return s.rate() * nominal / s.ref }

// correctedSeconds returns the step's duration at the nominal reference rate.
func (s sample) correctedSeconds(nominal float64) float64 {
	return s.elapsed.Seconds() * s.ref / nominal
}

// interleave runs step(0), step(1), ... while more(i, time spent so far)
// holds, with a reference window before the first step and after each one,
// so every step has a reference measured on both sides of it. refDur gets
// the last step's duration (0 before the first).
func interleave(ref *refKernel, refDur func(last time.Duration) time.Duration,
	more func(i int, spent time.Duration) bool,
	step func(i int) (items float64, elapsed time.Duration, err error)) ([]sample, error) {
	start := time.Now()
	before := ref.window(refDur(0))
	var out []sample
	for i := 0; more(i, time.Since(start)); i++ {
		items, el, err := step(i)
		if err != nil {
			return nil, err
		}
		after := ref.window(refDur(el))
		out = append(out, sample{items, el, (before + after) / 2})
		before = after
	}
	return out, nil
}

func fixedWindow(time.Duration) time.Duration { return window }

func reps(n int) func(int, time.Duration) bool {
	return func(i int, _ time.Duration) bool { return i < n }
}

// until keeps stepping while less than d was spent, and steps at least once.
func until(d time.Duration) func(int, time.Duration) bool {
	return func(i int, spent time.Duration) bool { return i == 0 || spent < d }
}

// setSetup records setup_s: the median set-up time at the nominal
// reference rate.
func setSetup(r *report, setups []sample, nominal float64) {
	s := make([]float64, len(setups))
	raw := make([]float64, len(setups))
	refs := make([]float64, len(setups))
	for i, x := range setups {
		s[i] = x.correctedSeconds(nominal)
		raw[i] = x.elapsed.Seconds()
		refs[i] = x.ref
	}
	r.set("setup_s", median(s))
	r.note("set-ups %d: raw %.4f s, reference %.4f Mitems/s, corrected %.4f s",
		len(setups), median(raw), median(refs)/1e6, median(s))
}

// setClosedLoop records a closed loop's throughput and per-item response
// times from its windows, and the raw and reference rates beside them.
func setClosedLoop(r *report, windows []sample, nominal float64) {
	corr := make([]float64, len(windows))
	perItem := make([]float64, len(windows))
	raw := make([]float64, len(windows))
	refs := make([]float64, len(windows))
	for i, w := range windows {
		corr[i] = w.corrected(nominal)
		perItem[i] = 1e6 / corr[i]
		raw[i] = w.rate()
		refs[i] = w.ref
	}
	sort.Float64s(perItem)
	r.set("throughput", median(corr)/1e6)
	r.set("sojourn_p50_us", percentile(perItem, 50))
	r.set("sojourn_p90_us", percentile(perItem, 90))
	r.set("host.raw_throughput", median(raw)/1e6)
	r.set("host.ref_rate", median(refs)/1e6)
	r.note("windows %d: raw %.4f Mitems/s, reference %.4f Mitems/s (nominal %.4f), corrected %.4f Mitems/s",
		len(windows), median(raw)/1e6, median(refs)/1e6, nominal/1e6, median(corr)/1e6)
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// percentile returns the p-th percentile of sorted xs, interpolating between
// order statistics.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// heapPeak tracks the largest Go heap in use seen at its samples.
type heapPeak struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapPeak) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapPeak) mib() float64 { return float64(h.peak) / (1 << 20) }

// gcMark is the runtime's GC and allocation counters at one instant.
type gcMark struct {
	cycles  uint32
	pauseNs uint64
	alloc   uint64
}

func readGC() gcMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcMark{m.NumGC, m.PauseTotalNs, m.TotalAlloc}
}

// setRuntime records the Go runtime's per-layer metrics between two marks
// that enclose the timed part.
func setRuntime(r *report, from, to gcMark, items float64) {
	r.set("runtime.gc_cycles", float64(to.cycles-from.cycles))
	r.set("runtime.gc_pause_ms", float64(to.pauseNs-from.pauseNs)/1e6)
	r.set("runtime.alloc_bytes_per_item", float64(to.alloc-from.alloc)/items)
}

// totalItems sums the samples' items.
func totalItems(ss []sample) float64 {
	var n float64
	for _, s := range ss {
		n += s.items
	}
	return n
}

// split separates alternating samples: even steps, then odd steps.
func split(ss []sample) (even, odd []sample) {
	for i, s := range ss {
		if i%2 == 0 {
			even = append(even, s)
		} else {
			odd = append(odd, s)
		}
	}
	return even, odd
}

// medianCorrected is the median corrected rate of ss.
func medianCorrected(ss []sample, nominal float64) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = s.corrected(nominal)
	}
	return median(v)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
