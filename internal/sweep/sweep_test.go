package sweep

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestRunDeterministicAcrossWorkerCounts is the runner's core contract:
// the same points produce bit-identical results (including each point's
// RNG draws) at any worker count.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	points := make([]int, 37)
	for i := range points {
		points[i] = i * 3
	}
	eval := func(env Env, p int) (uint64, error) {
		return uint64(p)*1e9 + env.RNG.Uint64()%1e9 + uint64(env.Index), nil
	}
	ref, err := Run(points, eval, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 16, 100} {
		got, err := Run(points, eval, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d point %d: %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestRunLowestIndexErrorWins pins the schedule-independent error rule.
func TestRunLowestIndexErrorWins(t *testing.T) {
	points := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 4} {
		_, err := Run(points, func(_ Env, p int) (int, error) {
			if p >= 3 {
				return 0, fmt.Errorf("point %d failed", p)
			}
			return p, nil
		}, Options{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "point 3") {
			t.Fatalf("workers=%d: err %v, want the lowest-indexed failure (point 3)", workers, err)
		}
	}
}

func TestRunSeedsMatchSeed(t *testing.T) {
	got, err := Run([]int{0, 1, 2}, func(env Env, _ int) (uint64, error) {
		return env.RNG.Uint64(), nil
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		want := Run1RNG(i)
		if g != want {
			t.Fatalf("point %d drew %d, want %d (Seed-derived)", i, g, want)
		}
	}
}

// Run1RNG reproduces the first draw a point's Env RNG yields.
func Run1RNG(i int) uint64 {
	return sim.NewRNG(Seed(i)).Uint64()
}

func TestSeedMixes(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 10_000; i++ {
		s := Seed(i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	// Adjacent indices must not produce near-identical seeds.
	if Seed(0)^Seed(1) == 1 {
		t.Fatal("adjacent seeds differ only in the low bit — not mixed")
	}
}
