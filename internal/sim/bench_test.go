package sim

import "testing"

// BenchmarkFIFOSteadyState pins the property the hot paths rely on: a FIFO
// whose occupancy oscillates within a previously-reached high-water mark
// performs zero allocations per operation. The network inflight queues and
// the memory due queues all reuse one FIFO across a whole run, so any
// regression here (a Push that reallocates, a Pop that copies) multiplies
// across every simulated packet.
func BenchmarkFIFOSteadyState(b *testing.B) {
	var q FIFO[int]
	// Reach the high-water mark once; steady state reuses this buffer.
	const depth = 64
	for i := 0; i < depth; i++ {
		q.Push(i)
	}
	for i := 0; i < depth; i++ {
		q.Pop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < depth; j++ {
			q.Push(j)
		}
		for j := 0; j < depth; j++ {
			q.Pop()
		}
	}
}

// BenchmarkFIFOPointerSteadyState is the pointer-element variant (the
// shape the crossbar and retry queues use); Pop must zero the slot for the
// garbage collector without allocating.
func BenchmarkFIFOPointerSteadyState(b *testing.B) {
	type payload struct{ a, b uint64 }
	var q FIFO[*payload]
	items := make([]*payload, 64)
	for i := range items {
		items[i] = &payload{}
	}
	for _, p := range items {
		q.Push(p)
	}
	for range items {
		q.Pop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range items {
			q.Push(p)
		}
		for range items {
			q.Pop()
		}
	}
}

// TestFIFOSteadyStateZeroAlloc enforces the benchmark's claim in the
// regular test suite: steady-state Push/Pop cycles allocate nothing.
func TestFIFOSteadyStateZeroAlloc(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 32; i++ {
		q.Push(i)
	}
	for i := 0; i < 32; i++ {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 32; j++ {
			q.Push(j)
		}
		for j := 0; j < 32; j++ {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state FIFO traffic allocated %.1f times per cycle; want 0", allocs)
	}
}

// BenchmarkEngineTick reports the engine's scheduling overhead per
// simulated cycle: one op is one tick of a component that is due every
// cycle and does nothing, so the time is the engine's alone. "one" runs it
// alone, on the one-component loop; "beside-inert" registers a neighbour
// that is never armed after its first step, which keeps the engine on the
// wake-queue heap path with the same single component due each tick.
func BenchmarkEngineTick(b *testing.B) {
	for _, bc := range []struct {
		name      string
		neighbour bool
	}{{"one", false}, {"beside-inert", true}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine()
			e.Register(&ticker{})
			if bc.neighbour {
				e.Register(&inert{})
			}
			never := func() bool { return false }
			e.Run(never, 16)
			b.ReportAllocs()
			b.ResetTimer()
			e.Run(never, Cycle(b.N))
		})
	}
}
