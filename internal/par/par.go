// Package par runs independent pieces of one computation on every core:
// runtime.GOMAXPROCS(0) workers, started and waited for inside each call.
// Callers keep their results deterministic by writing each piece's output
// to a place of its own; with one worker every piece runs inline, in
// order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of workers a call uses: runtime.GOMAXPROCS(0).
func Workers() int { return runtime.GOMAXPROCS(0) }

// Split cuts [0, n) into one contiguous chunk per worker, none shorter
// than grain but the last: chunk c is [bounds[c], bounds[c+1]). An empty
// range is one empty chunk.
func Split(n, grain int) (bounds []int) {
	chunks := max(1, min(Workers(), n/max(grain, 1)))
	bounds = make([]int, chunks+1)
	for c := range bounds {
		bounds[c] = c * n / chunks
	}
	return bounds
}

// Each calls fn(i) for every i in [0, n): the workers take indexes in
// ascending order, so the earliest indexes start first. It returns when
// every call is done.
func Each(n int, fn func(i int)) {
	workers := min(Workers(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
