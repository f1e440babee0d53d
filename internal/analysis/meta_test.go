package analysis_test

import (
	"strings"
	"testing"

	"powerchoice/internal/analysis"
)

// hotPathAllocCoverage maps every //powervet:hotpath function in the tree to
// the AllocsPerRun test that measures it at runtime. Coverage is transitive
// along the hot path itself: the test that measures Handle.Insert also
// measures the selector, spinlock and lockedQueue helpers Insert runs
// through, because AllocsPerRun counts the whole operation. A function with
// no possible runtime measurement may map to "waived: <reason>" instead.
//
// The static analyzer and the runtime tests check the same invariant from
// two sides — hotpath proves no allocation site exists syntactically, the
// alloc tests prove none sneaks in dynamically (interface boxing through
// generics, runtime growth) — so every annotation must have both.
var hotPathAllocCoverage = map[string]string{
	"powerchoice/internal/backoff.Spinner.Reset": "powerchoice/internal/backoff.TestSpinnerAllocationFree",
	"powerchoice/internal/backoff.Spinner.Spin":  "powerchoice/internal/backoff.TestSpinnerAllocationFree",

	"powerchoice/internal/core.Handle.Insert":               "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.Handle.DeleteMin":            "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.Handle.InsertBatch":          "powerchoice/internal/core.TestBatchOpsAllocationFree",
	"powerchoice/internal/core.Handle.DeleteMinBatch":       "powerchoice/internal/core.TestBatchOpsAllocationFree",
	"powerchoice/internal/core.topology.anyNonEmpty":        "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.selector.refresh":            "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.lockedQueue.push":            "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.lockedQueue.pushBatch":       "powerchoice/internal/core.TestBatchOpsAllocationFree",
	"powerchoice/internal/core.lockedQueue.popMin":          "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.lockedQueue.popBatch":        "powerchoice/internal/core.TestBatchOpsAllocationFree",
	"powerchoice/internal/core.lockedQueue.syncDary":        "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.lockedQueue.emptyUnderLock":  "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.lockedQueue.unlock":          "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.selector.flipBeta":           "powerchoice/internal/core.TestHandleOpsAllocationFreeBetaCoin",
	"powerchoice/internal/core.selector.sampleInsertQueue":  "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.selector.sampleDeleteQueue":  "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.selector.lockForInsert":      "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.selector.lockNonEmptyQueue":  "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.selector.lockNonEmptyAtomic": "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.queuedLock.TryLock":          "powerchoice/internal/core.TestHandleOpsAllocationFree",
	"powerchoice/internal/core.queuedLock.Lock":             "powerchoice/internal/core.TestQueuedLockAllocationFree",
	"powerchoice/internal/core.queuedLock.Unlock":           "powerchoice/internal/core.TestHandleOpsAllocationFree",

	"powerchoice/internal/pqueue.DAryHeap.Len":      "powerchoice/internal/pqueue.TestDAryHeapOpsAllocationFree",
	"powerchoice/internal/pqueue.DAryHeap.MinKey":   "powerchoice/internal/pqueue.TestDAryHeapOpsAllocationFree",
	"powerchoice/internal/pqueue.DAryHeap.PopMin":   "powerchoice/internal/pqueue.TestDAryHeapOpsAllocationFree",
	"powerchoice/internal/pqueue.DAryHeap.Push":     "powerchoice/internal/pqueue.TestDAryHeapOpsAllocationFree",
	"powerchoice/internal/pqueue.DAryHeap.siftDown": "powerchoice/internal/pqueue.TestDAryHeapOpsAllocationFree",
	"powerchoice/internal/pqueue.DAryHeap.siftUp":   "powerchoice/internal/pqueue.TestDAryHeapOpsAllocationFree",

	"powerchoice/internal/sched.PopBuffer.Pop": "powerchoice/internal/sched.TestPopBufferPopAllocationFree",

	"powerchoice/internal/xrand.Source.Bernoulli":     "powerchoice/internal/xrand.TestSourceOpsAllocationFree",
	"powerchoice/internal/xrand.Source.Coin":          "powerchoice/internal/xrand.TestSourceOpsAllocationFree",
	"powerchoice/internal/xrand.Source.ExpFloat64":    "powerchoice/internal/xrand.TestSourceOpsAllocationFree",
	"powerchoice/internal/xrand.Source.Float64":       "powerchoice/internal/xrand.TestSourceOpsAllocationFree",
	"powerchoice/internal/xrand.Source.Intn":          "powerchoice/internal/xrand.TestSourceOpsAllocationFree",
	"powerchoice/internal/xrand.Source.TwoBounded32":  "powerchoice/internal/xrand.TestSourceOpsAllocationFree",
	"powerchoice/internal/xrand.Source.TwoDistinct":   "powerchoice/internal/xrand.TestSourceOpsAllocationFree",
	"powerchoice/internal/xrand.Source.TwoDistinct32": "powerchoice/internal/xrand.TestSourceOpsAllocationFree",
	"powerchoice/internal/xrand.Source.Uint64":        "powerchoice/internal/xrand.TestSourceOpsAllocationFree",
}

// TestHotPathAllocCoverage is the meta-test: the annotation scan drives the
// expectation, so annotating a new function without runtime alloc coverage
// fails here, and deleting a function without pruning the map fails too.
func TestHotPathAllocCoverage(t *testing.T) {
	ann, err := analysis.ScanAnnotations("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(ann.HotPath) == 0 {
		t.Fatal("annotation scan found no //powervet:hotpath functions; the scanner is broken")
	}
	allocTests := make(map[string]bool, len(ann.AllocTests))
	for _, at := range ann.AllocTests {
		allocTests[at.Key] = true
	}
	scanned := make(map[string]bool, len(ann.HotPath))
	for _, h := range ann.HotPath {
		scanned[h.Key] = true
		cover, ok := hotPathAllocCoverage[h.Key]
		if !ok {
			t.Errorf("%s: %s is //powervet:hotpath but has no entry in hotPathAllocCoverage — add an AllocsPerRun test (or a waiver with a reason)", h.Pos, h.Key)
			continue
		}
		if rest, isWaiver := strings.CutPrefix(cover, "waived:"); isWaiver {
			if strings.TrimSpace(rest) == "" {
				t.Errorf("%s: waiver for %s has no reason", h.Pos, h.Key)
			}
			continue
		}
		if !allocTests[cover] {
			t.Errorf("%s: %s claims coverage by %s, which is not a Test/Benchmark reaching testing.AllocsPerRun", h.Pos, h.Key, cover)
		}
	}
	for key := range hotPathAllocCoverage {
		if !scanned[key] {
			t.Errorf("hotPathAllocCoverage has stale entry %s: no such //powervet:hotpath function in the tree", key)
		}
	}
}
