package core

import (
	"testing"
	"unsafe"

	"powerchoice/internal/analysis"
)

// TestLockedQueuePaddedToCacheLinePair: each queue in a topology snapshot must
// occupy its own cache-line multiple — two lines by default, so neither
// direct false sharing nor the adjacent-cache-line prefetcher couples
// neighbouring queues' hot words (lock, cached top, heap slice headers). The
// expected size is read from the //powervet:cacheline annotation on
// lockedQueue (the same number the static cacheline analyzer enforces), so
// the runtime check and the annotation cannot drift apart. The size cannot depend on the
// value type: V only appears behind the heap's slice headers.
func TestLockedQueuePaddedToCacheLinePair(t *testing.T) {
	ann, err := analysis.ScanAnnotations("../..")
	if err != nil {
		t.Fatal(err)
	}
	var want uintptr
	for _, c := range ann.CacheLine {
		if c.Key == "powerchoice/internal/core.lockedQueue" {
			want = uintptr(c.Bytes)
		}
	}
	if want == 0 {
		t.Fatal("lockedQueue has no //powervet:cacheline annotation; the padding contract is gone")
	}
	sizes := map[string]uintptr{
		"int":    unsafe.Sizeof(lockedQueue[int]{}),
		"string": unsafe.Sizeof(lockedQueue[string]{}),
		"struct": unsafe.Sizeof(lockedQueue[[3]uint64]{}),
	}
	for v, sz := range sizes {
		if sz != want {
			t.Errorf("lockedQueue[%s] is %d bytes, want the annotated %d — if the payload grew, shrink the pad (or consciously re-annotate), don't spill silently", v, sz, want)
		}
	}
	// The hot words themselves must sit inside the first cache line, ahead
	// of the pad: the lock word, the cached top and both of the heap's
	// slice headers, whose lengths are the queue's element count.
	var q lockedQueue[int]
	if end := unsafe.Offsetof(q.dary) + unsafe.Sizeof(q.dary); end > 64 {
		t.Errorf("hot words spill past the first cache line (the heap's slice headers end at %d)", end)
	}
}
