package main

import "time"

// refKernel is the frozen reference the closed loops' wall-clock metrics are
// corrected against. This host's speed drifts by up to ±18% between runs of
// one binary; a kernel of fixed work timed in the windows next to the
// workload's drifts with it, so workload rate / reference rate holds still
// where the raw rate does not.
//
// It imports nothing from the module and must never change: a later change
// to it would move every corrected metric. It is a binary min-heap over
// []uint64, one push of a pseudo-random key plus one pop per pair, sized to
// the workload's working set, and it never allocates, so GC stays out of its
// windows.
type refKernel struct {
	keys []uint64
	x    uint64
}

// newRefKernel fills a heap of n keys from a fixed seed.
func newRefKernel(n int) *refKernel {
	k := &refKernel{keys: make([]uint64, 0, n+1), x: 0x9e3779b97f4a7c15}
	for i := 0; i < n; i++ {
		k.push(k.next())
	}
	return k
}

// next is xorshift64*.
func (k *refKernel) next() uint64 {
	k.x ^= k.x >> 12
	k.x ^= k.x << 25
	k.x ^= k.x >> 27
	return k.x * 2685821657736338717
}

func (k *refKernel) push(v uint64) {
	a := append(k.keys, v)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= v {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = v
	k.keys = a
}

func (k *refKernel) pop() uint64 {
	a := k.keys
	top := a[0]
	last := a[len(a)-1]
	a = a[:len(a)-1]
	n := len(a)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a[c+1] < a[c] {
			c++
		}
		if a[c] >= last {
			break
		}
		a[i] = a[c]
		i = c
	}
	if n > 0 {
		a[i] = last
	}
	k.keys = a
	return top
}

// refSink keeps the popped keys live.
var refSink uint64

// window runs push/pop pairs for at least d and returns the rate in items
// (two per pair) per second.
func (k *refKernel) window(d time.Duration) float64 {
	var items int64
	var acc uint64
	start := time.Now()
	for {
		for i := 0; i < 1024; i++ {
			k.push(k.next())
			acc += k.pop()
		}
		items += 2048
		if el := time.Since(start); el >= d {
			refSink += acc
			return float64(items) / el.Seconds()
		}
	}
}
