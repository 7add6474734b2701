package par

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// goid returns the current goroutine's id as printed by runtime.Stack.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

func TestFor(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 8, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				effective := max(1, min(workers, n))
				caller := goid()
				runs := make([]atomic.Int32, n)
				var badWorker, offCaller atomic.Int32
				For(n, workers, nil, func(w, i int) {
					runs[i].Add(1)
					if w < 0 || w >= effective {
						badWorker.Store(1)
					}
					if effective == 1 && goid() != caller {
						offCaller.Store(1)
					}
				})
				for i := range runs {
					if c := runs[i].Load(); c != 1 {
						t.Fatalf("index %d ran %d times, want 1", i, c)
					}
				}
				if badWorker.Load() != 0 {
					t.Fatalf("a worker number fell outside [0, %d)", effective)
				}
				if offCaller.Load() != 0 {
					t.Fatal("one worker ran fn off the caller's goroutine")
				}

				var calls atomic.Int32
				For(n, workers, func() bool { return true }, func(w, i int) { calls.Add(1) })
				if c := calls.Load(); c != 0 {
					t.Fatalf("stop true from the start: %d calls ran, want 0", c)
				}
			})
		}
	}
}

// TestForStop stops the pool once half the indices have started and
// checks that at most one call per other worker starts after stop first
// reports true, and that the indices that ran form a prefix.
func TestForStop(t *testing.T) {
	for _, n := range []int{5, 1000} {
		for _, workers := range []int{1, 2, 8, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				effective := max(1, min(workers, n))
				limit := int32(n / 2)
				var started, late atomic.Int32
				var stopped atomic.Bool
				stop := func() bool {
					if started.Load() >= limit {
						stopped.Store(true)
						return true
					}
					return false
				}
				ran := make([]atomic.Bool, n)
				For(n, workers, stop, func(w, i int) {
					if stopped.Load() {
						late.Add(1)
					}
					started.Add(1)
					ran[i].Store(true)
				})
				if l := late.Load(); int(l) > effective-1 {
					t.Fatalf("%d calls started after stop, want at most %d", l, effective-1)
				}
				total := int(started.Load())
				if total < int(limit) {
					t.Fatalf("%d calls ran, want at least %d", total, limit)
				}
				for i := range ran {
					if ran[i].Load() != (i < total) {
						t.Fatalf("index %d ran=%v, want the first %d indices", i, ran[i].Load(), total)
					}
				}
			})
		}
	}
}
