// Package par is the module's one fan-out: a fixed set of workers pulling
// indices off one shared cursor. The scan chunks, batch embed, corpus
// pairs, job grades, tournament cells and experiment sweep points all run
// on For; each caller keeps only its own stop condition and its own
// default worker count.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(w, i) once for every i in [0, n) on max(1, min(workers, n))
// workers, numbered from 0, and returns once every call has returned.
// Indices are handed out in increasing order from one shared cursor.
// Each worker calls stop (nil means never) before it takes the next
// index: once stop reports true, calls already running finish and no new
// ones start, so the indices that ran are always a prefix of [0, n). With
// one worker fn runs inline on the caller's goroutine.
//
// fn may be called concurrently for different indices; it must confine
// its writes to state owned by index i or by worker w.
func For(n, workers int, stop func() bool, fn func(w, i int)) {
	workers = max(1, min(workers, n))
	if workers == 1 {
		for i := 0; i < n && (stop == nil || !stop()); i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for stop == nil || !stop() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
