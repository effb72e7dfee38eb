package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestSplit: the chunks cover [0, n) in order without gaps, one per
// worker at most, none shorter than grain but the last.
func TestSplit(t *testing.T) {
	for _, procs := range []int{1, 2, 5} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range []struct{ n, grain int }{{0, 4}, {3, 4}, {4, 4}, {9, 4}, {100, 4}, {101, 1}, {7, 0}} {
			b := Split(c.n, c.grain)
			chunks := len(b) - 1
			if b[0] != 0 || b[chunks] != c.n || chunks < 1 || chunks > procs {
				t.Errorf("procs %d: Split(%d, %d) = %v", procs, c.n, c.grain, b)
				continue
			}
			for i := 0; i < chunks; i++ {
				if size := b[i+1] - b[i]; size < 0 || (chunks > 1 && size < c.grain) {
					t.Errorf("procs %d: Split(%d, %d) = %v: chunk %d has %d", procs, c.n, c.grain, b, i, size)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestEachCallsEveryIndexOnce, with one worker and with several.
func TestEachCallsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 100} {
			calls := make([]atomic.Int32, n)
			Each(n, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("procs %d, n %d: index %d called %d times", procs, n, i, c)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
