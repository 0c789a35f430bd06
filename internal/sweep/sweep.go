// Package sweep is the repository's parallel sweep runner: it evaluates a
// slice of independent simulation points across a bounded worker pool with
// per-point deterministic seeding.
//
// Sweep points in this repository are independent whole-machine simulations
// (each builds its own machine from its own compiled program), which makes
// them embarrassingly parallel. Determinism is preserved by construction:
// results land in a slice indexed by point, every point draws randomness
// from an RNG seeded by its index alone (not by worker or schedule), and on
// failure the error from the lowest-indexed failing point wins — so a sweep
// is bit-identical at any worker count, including 1.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Env is the per-point context a worker hands to the point function.
type Env struct {
	// Index is the point's position in the input slice.
	Index int
	// RNG is seeded from Index alone (see Seed); stochastic points stay
	// reproducible under any worker schedule.
	RNG *sim.RNG
}

// Options tunes a sweep run.
type Options struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS. The pool
	// never exceeds the number of points.
	Workers int
}

// Seed derives a well-mixed RNG seed from a sweep-point index (splitmix64
// finalizer). Exported so sweeps that construct machines outside Run — the
// conformance fleet, the benchmark harness — can reproduce the exact seeds
// a Run-driven sweep would use.
func Seed(i int) uint64 {
	z := uint64(i) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Run evaluates fn over every point, fanning points across the worker
// pool. Results are returned in input order. The first error in input
// order (not completion order) is returned.
func Run[P, R any](points []P, fn func(env Env, p P) (R, error), opt Options) ([]R, error) {
	n := len(points)
	results := make([]R, n)
	errs := make([]error, n)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				env := Env{Index: i, RNG: sim.NewRNG(Seed(i))}
				results[i], errs[i] = fn(env, points[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
