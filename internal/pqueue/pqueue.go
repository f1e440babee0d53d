// Package pqueue provides DAryHeap, the sequential priority queue that backs
// every concurrent structure in this repository. The paper's MultiQueue
// composes n of these behind try-locks (§5 uses boost d-ary heaps; ours is
// the equivalent flat 4-ary heap).
//
// The heap is a min-queue on uint64 keys: smaller key = higher priority. It
// is not safe for concurrent use; callers provide their own locking.
package pqueue

// Item is a keyed element stored in a queue.
type Item[V any] struct {
	Key   uint64
	Value V
}
