package sim

import (
	"testing"
	"testing/quick"
)

func TestSchedulerTickOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Register(ComponentFunc(func(now Cycle) { order = append(order, i) }))
	}
	s.Tick()
	for i, v := range order {
		if v != i {
			t.Fatalf("components stepped out of registration order: %v", order)
		}
	}
	if s.Now() != 1 {
		t.Fatalf("Now() = %d after one tick", s.Now())
	}
}

func TestSchedulerRunStopsOnPredicate(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.Register(ComponentFunc(func(now Cycle) { count++ }))
	elapsed, ok := s.Run(func() bool { return count >= 10 }, 1000)
	if !ok || elapsed != 10 || count != 10 {
		t.Fatalf("elapsed=%d ok=%t count=%d, want 10/true/10", elapsed, ok, count)
	}
}

func TestSchedulerRunAlreadyDone(t *testing.T) {
	s := NewScheduler()
	elapsed, ok := s.Run(func() bool { return true }, 100)
	if !ok || elapsed != 0 {
		t.Fatalf("elapsed=%d ok=%t, want 0/true", elapsed, ok)
	}
}

func TestSchedulerRunHitsLimit(t *testing.T) {
	s := NewScheduler()
	elapsed, ok := s.Run(func() bool { return false }, 42)
	if ok || elapsed != 42 {
		t.Fatalf("elapsed=%d ok=%t, want 42/false", elapsed, ok)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(54321)
	same := 0
	a2 := NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d times in 1000", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must not produce the degenerate all-zero stream")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
