package bench

import (
	"strings"
	"testing"
	"time"

	"powerchoice/internal/graph"
	"powerchoice/internal/klsm"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/xrand"
)

func TestThroughputValidates(t *testing.T) {
	if _, err := Throughput(ThroughputSpec{Impl: pqadapt.ImplMultiQueue, Threads: 0, Duration: time.Millisecond}); err == nil {
		t.Error("threads=0 accepted")
	}
	if _, err := Throughput(ThroughputSpec{Impl: pqadapt.ImplMultiQueue, Threads: 1}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Throughput(ThroughputSpec{Impl: pqadapt.Impl("bogus"), Threads: 1, Duration: time.Millisecond}); err == nil {
		t.Error("bogus impl accepted")
	}
}

func TestThroughputAllImpls(t *testing.T) {
	for _, impl := range pqadapt.Impls() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			res, err := Throughput(ThroughputSpec{
				Impl:     impl,
				Threads:  2,
				Duration: 30 * time.Millisecond,
				Prefill:  4096,
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops <= 0 {
				t.Fatalf("no ops recorded: %+v", res)
			}
			if res.MOps <= 0 {
				t.Fatalf("non-positive throughput: %+v", res)
			}
		})
	}
}

// TestThroughputCountsOnlySuccessfulOps: the runner attempts exactly one
// DeleteMin per Insert, so completed ops plus failed pops must come out
// even (Ops = inserts + successful deletes, EmptyPops = the rest) — and in
// the prefetched never-empty regime the paper measures, no pop may fail at
// all. Failed pops used to be counted as completed work, inflating MOps
// whenever Prefill was small.
func TestThroughputCountsOnlySuccessfulOps(t *testing.T) {
	prefilled, err := Throughput(ThroughputSpec{
		Impl:     pqadapt.ImplMultiQueue,
		Threads:  2,
		Duration: 30 * time.Millisecond,
		Prefill:  4096,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prefilled.EmptyPops != 0 {
		t.Errorf("never-empty regime reported %d empty pops", prefilled.EmptyPops)
	}
	empty, err := Throughput(ThroughputSpec{
		Impl:     pqadapt.ImplGlobalLock,
		Threads:  4,
		Duration: 30 * time.Millisecond,
		Prefill:  0,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if (empty.Ops+empty.EmptyPops)%2 != 0 {
		t.Errorf("ops %d + empty pops %d not even: some attempt was double- or un-counted",
			empty.Ops, empty.EmptyPops)
	}
}

// TestThroughputSeedDomainSeparated: the harness's per-worker key streams
// must come from a different stream family than the one the queue under test
// derives from the same root seed (core.MultiQueue hands its handles
// NewSharded(seed).Source(1), Source(2), …). Before the Tag fix, worker w's
// keys were bit-identical to handle w's internal pick/coin stream.
func TestThroughputSeedDomainSeparated(t *testing.T) {
	const seed = 42
	//powervet:allow rngtag this test deliberately reproduces the queue's raw (untagged) family to assert the harness family differs from it
	queueFamily := xrand.NewSharded(seed)
	harnessFamily := xrand.NewSharded(xrand.Tag(seed, throughputSeedTag))
	// Handle indices start at 1; sweep past any realistic worker count and
	// include the prefill stream's index too.
	for _, i := range []int{1, 2, 3, 4, 8, 16, 64, 1 << 20} {
		q, h := queueFamily.Source(i), harnessFamily.Source(i)
		for j := 0; j < 16; j++ {
			if q.Uint64() == h.Uint64() {
				t.Fatalf("shard %d draw %d: harness stream equals queue handle stream", i, j)
			}
		}
	}
}

func TestRankQualityValidates(t *testing.T) {
	if _, err := RankQuality(RankSpec{}); err == nil {
		t.Error("zero spec accepted")
	}
	if _, err := RankQuality(RankSpec{
		Impl: pqadapt.Impl("bogus"), Threads: 1, Prefill: 10, OpsPerThread: 1,
	}); err == nil {
		t.Error("bogus impl accepted")
	}
}

// TestRankQualityExactImplIsOne: an exact queue driven through the same
// harness must report (near-)minimum ranks; the skiplist's occasional 2s
// come from sequencing noise, never from the structure.
func TestRankQualityExactImplIsOne(t *testing.T) {
	res, err := RankQuality(RankSpec{
		Impl:         pqadapt.ImplGlobalLock,
		Threads:      2,
		Prefill:      1 << 12,
		OpsPerThread: 1 << 10,
		Seed:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean > 1.5 {
		t.Errorf("global-lock mean rank %v, want ≈ 1", res.Mean)
	}
}

// TestRankQualityOrdering: exact < MultiQueue < k-LSM in rank error. The
// MultiQueue and exact legs use the concurrent harness (their relaxation is
// visible even if the scheduler serialises the workers); the k-LSM leg uses
// a deterministic interleave of two handles, because its relaxation only
// exists across simultaneously active handles and a serialised run is
// exact.
func TestRankQualityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	mean := func(impl pqadapt.Impl) float64 {
		res, err := RankQuality(RankSpec{
			Impl:         impl,
			Threads:      2,
			Prefill:      1 << 13,
			OpsPerThread: 1 << 11,
			Seed:         9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Mean
	}
	exact := mean(pqadapt.ImplGlobalLock)
	mq := mean(pqadapt.ImplMultiQueue)
	if !(exact < mq) {
		t.Errorf("rank ordering violated: exact %v, multiqueue %v", exact, mq)
	}

	// Deterministic k-LSM leg: two handles alternate deletions; each holds
	// stale spy batches the other cannot see.
	const k = 256
	const m = 1 << 13
	kq, err := klsm.New[int32](k, 8)
	if err != nil {
		t.Fatal(err)
	}
	producer := kq.Handle()
	for i := 0; i < m; i++ {
		producer.Insert(uint64(i), int32(i))
	}
	producer.Flush()
	h1, h2 := kq.Handle(), kq.Handle()
	present := make([]bool, m)
	for i := range present {
		present[i] = true
	}
	var sum float64
	const steps = m / 2
	for i := 0; i < steps; i++ {
		h := h1
		if i%2 == 1 {
			h = h2
		}
		key, _, ok := h.DeleteMin()
		if !ok {
			t.Fatal("unexpected empty")
		}
		rank := 0
		for l := 0; l <= int(key); l++ {
			if present[l] {
				rank++
			}
		}
		present[key] = false
		sum += float64(rank)
	}
	klsmMean := sum / steps
	if klsmMean <= mq {
		t.Errorf("rank ordering violated: multiqueue %v, klsm %v", mq, klsmMean)
	}
}

func TestRankQualityBounds(t *testing.T) {
	res, err := RankQuality(RankSpec{
		Beta:         1,
		Queues:       8,
		Threads:      2,
		Prefill:      1 << 14,
		OpsPerThread: 1 << 12,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean < 1 {
		t.Errorf("mean rank %v below 1", res.Mean)
	}
	// β=1 with 8 queues: mean rank must be a small multiple of n.
	if res.Mean > 40 {
		t.Errorf("mean rank %v too large for β=1, n=8", res.Mean)
	}
	if res.P50 > res.P99 {
		t.Errorf("P50 %v > P99 %v", res.P50, res.P99)
	}
	if res.Removals == 0 || res.Hist.Total() == 0 {
		t.Error("no removals analysed")
	}
}

func TestRankQualityMonotoneInBeta(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	mean := func(beta float64) float64 {
		res, err := RankQuality(RankSpec{
			Beta:         beta,
			Queues:       8,
			Threads:      2,
			Prefill:      1 << 14,
			OpsPerThread: 1 << 12,
			Seed:         3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Mean
	}
	m0, m1 := mean(0.25), mean(1)
	if m1 >= m0 {
		t.Errorf("rank not improved by β: β=0.25 gives %v, β=1 gives %v", m0, m1)
	}
}

func TestSSSPRunsAndVerifies(t *testing.T) {
	g, err := graph.RoadNetwork(30, 30, 0.15, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range []pqadapt.Impl{pqadapt.ImplOneBeta75, pqadapt.ImplSkipList, pqadapt.ImplKLSM, pqadapt.ImplGlobalLock} {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			res, err := SSSP(SSSPSpec{
				Impl:    impl,
				G:       g,
				Source:  0,
				Threads: 2,
				Seed:    5,
				Verify:  true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 {
				t.Error("no elapsed time")
			}
			if res.Stats.Relaxations == 0 {
				t.Error("no relaxations")
			}
		})
	}
}

func TestSSSPNilGraph(t *testing.T) {
	if _, err := SSSP(SSSPSpec{Impl: pqadapt.ImplMultiQueue}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("impl", "threads", "mops")
	tb.AddRow("multiqueue", 4, 1.2345)
	tb.AddRow("skiplist", 16, 0.5)
	s := tb.String()
	if !strings.Contains(s, "multiqueue") || !strings.Contains(s, "1.234") {
		t.Errorf("table missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header + separator + 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), s)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "impl,threads,mops\n") {
		t.Errorf("bad CSV header:\n%s", csv)
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(`say "hi"`, "x,y")
	csv := tb.CSV()
	if !strings.Contains(csv, `"say ""hi"""`) || !strings.Contains(csv, `"x,y"`) {
		t.Errorf("CSV escaping broken:\n%s", csv)
	}
}
