package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// forEach calls fn(w, i) once for every i in [0, n), claiming indexes off
// one atomic counter from a pool of min(workers, n) goroutines; w in
// [0, workers) names the calling worker. workers <= 0 means
// runtime.NumCPU(); one worker runs inline on the caller's goroutine. It
// returns once every call has: starting a worker orders the caller's
// earlier writes before its calls, and the wait orders every call before
// the return. The engine's only pool — Engine.stepLive and Sweep are both
// built on it.
func forEach(n, workers int, fn func(w, i int)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Sweep runs jobs 0..n-1 on a pool of `workers` goroutines and returns
// their results indexed by job. workers <= 0 means runtime.NumCPU().
//
// Determinism contract: job(i) must derive ALL of its randomness from i
// (per-job rng streams seeded by the job index, as every experiment here
// does) and must not touch shared mutable state. Results land in the slice
// at their job index, so the returned slice is byte-identical for any
// worker count and any scheduling interleaving — which is what lets the
// experiment registry fan figure sweeps across every core while still
// reproducing the paper's numbers exactly.
func Sweep[R any](n, workers int, job func(i int) R) []R {
	if n <= 0 {
		return nil
	}
	out := make([]R, n)
	forEach(n, workers, func(_, i int) { out[i] = job(i) })
	return out
}
