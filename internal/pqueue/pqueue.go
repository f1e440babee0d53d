// Package pqueue provides the sequential priority queues that back every
// concurrent structure in this repository. The paper's MultiQueue composes n
// of these behind try-locks (§5 uses boost d-ary heaps; ours is the
// equivalent flat 4-ary DAryHeap).
//
// All queues are min-queues on uint64 keys: smaller key = higher priority.
// None are safe for concurrent use; callers provide their own locking.
package pqueue

// Item is a keyed element stored in a queue.
type Item[V any] struct {
	Key   uint64
	Value V
}
