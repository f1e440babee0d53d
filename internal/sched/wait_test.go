package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitStep pins the producer's wait rule: beyond yieldWindow it sleeps,
// within yieldWindow it yields, and within spinWindow it yields only while
// a job is pending, reading the clock again otherwise.
func TestWaitStep(t *testing.T) {
	for _, c := range []struct {
		remaining time.Duration
		pending   int64
		want      wait
	}{
		{time.Second, 0, waitSleep},
		{yieldWindow + 1, 0, waitSleep},
		{yieldWindow + 1, 7, waitSleep},
		{yieldWindow, 0, waitYield},
		{yieldWindow, 1, waitYield},
		{spinWindow + 1, 0, waitYield},
		{spinWindow + 1, 1, waitYield},
		{spinWindow, 0, waitSpin},
		{spinWindow, 1, waitYield},
		{spinWindow, 7, waitYield},
		{1, 0, waitSpin},
		{1, 1, waitYield},
	} {
		if got := waitStep(c.remaining, c.pending); got != c.want {
			t.Errorf("waitStep(%v, pending %d) = %d, want %d", c.remaining, c.pending, got, c.want)
		}
	}
}

// TestSleepUntilReturnsElapsed: sleepUntil returns the elapsed time it last
// read, which is past the target and no later than the caller's next read,
// with or without pending work.
func TestSleepUntilReturnsElapsed(t *testing.T) {
	for _, pending := range []int64{0, 1} {
		var p atomic.Int64
		p.Store(pending)
		start := time.Now()
		const target = 150 * time.Microsecond
		got := sleepUntil(start, target, &p)
		if after := time.Since(start); got < target || got > after {
			t.Errorf("pending %d: sleepUntil returned %v, want within [%v, %v]", pending, got, target, after)
		}
	}
}
