package istructure

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// run steps the module until idle and not busy, up to limit cycles.
func run(t *testing.T, m *Module, limit int) {
	t.Helper()
	for c := 0; c < limit; c++ {
		m.Step(sim.Cycle(c))
	}
	if !m.Idle() {
		t.Fatalf("module not idle after %d cycles (%d queued)", limit, m.queue.Len())
	}
}

func TestWriteThenRead(t *testing.T) {
	var got []Response
	m := New(8, func(r Response) { got = append(got, r) })
	m.Enqueue(Request{Op: OpWrite, Addr: 3, Value: 42})
	m.Enqueue(Request{Op: OpRead, Addr: 3, ReplyTo: "reader"})
	run(t, m, 20)
	if len(got) != 1 || got[0].Value != 42 || got[0].ReplyTo != "reader" {
		t.Fatalf("got %v", got)
	}
	if m.Stats().ImmediateReads.Value() != 1 || m.Stats().DeferredReads.Value() != 0 {
		t.Fatal("read after write must be immediate")
	}
	if m.State(3) != Present {
		t.Fatalf("state = %v", m.State(3))
	}
}

func TestReadBeforeWriteIsDeferred(t *testing.T) {
	var got []Response
	m := New(8, func(r Response) { got = append(got, r) })
	m.Enqueue(Request{Op: OpRead, Addr: 5, ReplyTo: "early"})
	run(t, m, 10)
	if len(got) != 0 {
		t.Fatalf("read of empty cell must not respond, got %v", got)
	}
	if m.State(5) != Deferred || m.OutstandingDeferred() != 1 {
		t.Fatalf("state = %v, outstanding = %d", m.State(5), m.OutstandingDeferred())
	}
	m.Enqueue(Request{Op: OpWrite, Addr: 5, Value: 7})
	run(t, m, 10)
	if len(got) != 1 || got[0].Value != 7 || got[0].ReplyTo != "early" {
		t.Fatalf("deferred read not satisfied: %v", got)
	}
	if m.OutstandingDeferred() != 0 {
		t.Fatal("outstanding not cleared")
	}
}

func TestMultipleDeferredReaders(t *testing.T) {
	// "The memory module must maintain a list of deferred read requests
	// as there may be more than one read of a particular address before
	// the corresponding write."
	var got []Response
	m := New(4, func(r Response) { got = append(got, r) })
	for i := 0; i < 5; i++ {
		m.Enqueue(Request{Op: OpRead, Addr: 1, ReplyTo: i})
	}
	run(t, m, 20)
	if m.OutstandingDeferred() != 5 {
		t.Fatalf("outstanding = %d, want 5", m.OutstandingDeferred())
	}
	m.Enqueue(Request{Op: OpWrite, Addr: 1, Value: "v"})
	run(t, m, 20)
	if len(got) != 5 {
		t.Fatalf("satisfied %d readers, want 5", len(got))
	}
	seen := map[interface{}]bool{}
	for _, r := range got {
		if r.Value != "v" {
			t.Fatalf("wrong value %v", r.Value)
		}
		seen[r.ReplyTo] = true
	}
	if len(seen) != 5 {
		t.Fatal("each deferred reader must be satisfied exactly once")
	}
	if m.Stats().DeferListLen.Max() != 5 {
		t.Fatalf("defer list length histogram max = %d", m.Stats().DeferListLen.Max())
	}
}

// TestDoubleWriteFaults: a second write to a cell is the single-assignment
// fault of Figure 2-1. A standalone module reports the first one through
// Fault without panicking, keeps the first value, and keeps serving
// requests.
func TestDoubleWriteFaults(t *testing.T) {
	var got []Response
	m := New(8, func(r Response) { got = append(got, r) })
	m.Enqueue(Request{Op: OpWrite, Addr: 5, Value: 1})
	m.Enqueue(Request{Op: OpWrite, Addr: 5, Value: 2})
	m.Enqueue(Request{Op: OpWrite, Addr: 3, Value: 7})
	m.Enqueue(Request{Op: OpWrite, Addr: 3, Value: 8})
	m.Enqueue(Request{Op: OpRead, Addr: 5, ReplyTo: "r"})
	run(t, m, 20)
	if addr, ok := m.Fault(); !ok || addr != 5 {
		t.Fatalf("Fault() = %d, %v; want the first violation, address 5", addr, ok)
	}
	if m.Value(5) != 1 || m.Value(3) != 7 {
		t.Fatalf("values %v, %v: a faulting write must not overwrite", m.Value(5), m.Value(3))
	}
	if len(got) != 1 || got[0].Value != 1 {
		t.Fatalf("read after the fault got %v, want the first write's value", got)
	}
	if _, ok := New(8, func(Response) {}).Fault(); ok {
		t.Fatal("a fresh module reports a fault")
	}
}

// TestDoubleWriteCountedInErrors: every write to a present cell counts in
// Errors, not only the one Fault reports; first writes count none.
func TestDoubleWriteCountedInErrors(t *testing.T) {
	m := New(8, func(Response) {})
	m.Enqueue(Request{Op: OpWrite, Addr: 5, Value: 1})
	m.Enqueue(Request{Op: OpWrite, Addr: 3, Value: 7})
	m.Enqueue(Request{Op: OpWrite, Addr: 5, Value: 2})
	m.Enqueue(Request{Op: OpWrite, Addr: 3, Value: 8})
	m.Enqueue(Request{Op: OpWrite, Addr: 5, Value: 3})
	run(t, m, 20)
	if m.Stats().Errors.Value() != 3 {
		t.Fatalf("errors = %d, want 3", m.Stats().Errors.Value())
	}
	if m.Stats().Writes.Value() != 5 {
		t.Fatalf("writes = %d, want 5", m.Stats().Writes.Value())
	}
	if addr, ok := m.Fault(); !ok || addr != 5 {
		t.Fatalf("Fault() = %d, %v; want the first violation, address 5", addr, ok)
	}
}

func TestWriteTakesTwiceAsLongAsRead(t *testing.T) {
	// Paper: "A read operation is as efficient as in a traditional
	// memory. Write operations take twice as long."
	m := New(8, func(Response) {})
	for i := uint32(0); i < 8; i++ {
		m.Enqueue(Request{Op: OpWrite, Addr: i, Value: 1})
	}
	writeCycles := 0
	for c := 0; !m.Idle() || c == 0; c++ {
		m.Step(sim.Cycle(c))
		writeCycles++
		if writeCycles > 100 {
			t.Fatal("did not drain")
		}
	}
	// Drain fully including busy tail: 8 writes at 2 cycles each start at
	// 0,2,4,...,14, so the last starts at cycle 14.
	m2 := New(8, func(Response) {})
	for i := uint32(0); i < 8; i++ {
		m2.Enqueue(Request{Op: OpRead, Addr: i, ReplyTo: i})
	}
	readCycles := 0
	for c := 0; !m2.Idle() || c == 0; c++ {
		m2.Step(sim.Cycle(c))
		readCycles++
		if readCycles > 100 {
			t.Fatal("did not drain")
		}
	}
	if writeCycles < 2*readCycles-2 {
		t.Fatalf("writes drained in %d cycles, reads in %d; writes should take ~2x", writeCycles, readCycles)
	}
}

func TestAddressRangeChecked(t *testing.T) {
	m := New(10, func(Response) {})
	if err := m.Enqueue(Request{Op: OpRead, Addr: 10}); err == nil {
		t.Fatal("out-of-range address must error")
	}
	if err := m.Enqueue(Request{Op: OpRead, Addr: 9}); err != nil {
		t.Fatalf("in-range address rejected: %v", err)
	}
}

func TestPropertyEveryReadEventuallySatisfied(t *testing.T) {
	// For any interleaving of reads and writes over a small address space
	// where every address is written exactly once, every read receives
	// exactly the written value.
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		const size = 8
		got := map[int]interface{}{}
		m := New(size, func(r Response) {
			got[r.ReplyTo.(int)] = r.Value
		})
		written := [size]bool{}
		reads := 0
		// random schedule of 8 writes and 16 reads
		type op struct {
			isWrite bool
			addr    uint32
		}
		var ops []op
		for a := 0; a < size; a++ {
			ops = append(ops, op{true, uint32(a)})
		}
		for i := 0; i < 16; i++ {
			ops = append(ops, op{false, uint32(rng.Intn(size))})
		}
		for i := len(ops) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			ops[i], ops[j] = ops[j], ops[i]
		}
		expect := map[int]interface{}{}
		for _, o := range ops {
			if o.isWrite {
				m.Enqueue(Request{Op: OpWrite, Addr: o.addr, Value: int(o.addr) * 10})
				written[o.addr] = true
			} else {
				m.Enqueue(Request{Op: OpRead, Addr: o.addr, ReplyTo: reads})
				expect[reads] = int(o.addr) * 10
				reads++
			}
		}
		for c := 0; c < 1000; c++ {
			m.Step(sim.Cycle(c))
		}
		if len(got) != reads {
			return false
		}
		for k, v := range expect {
			if got[k] != v {
				return false
			}
		}
		return m.OutstandingDeferred() == 0
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHEPReadOfEmptyIsNACKed(t *testing.T) {
	var got []HEPResponse
	m := NewHEP(8, func(r HEPResponse) { got = append(got, r) })
	m.Enqueue(Request{Op: OpRead, Addr: 2, ReplyTo: "r"})
	for c := 0; c < 5; c++ {
		m.Step(sim.Cycle(c))
	}
	if len(got) != 1 || got[0].OK {
		t.Fatalf("empty-cell read must NACK: %v", got)
	}
	if m.Stats().Retries.Value() != 1 {
		t.Fatal("retry not counted")
	}
}

func TestHEPBusyWaitEventuallySucceeds(t *testing.T) {
	// A polling reader retries until the writer lands; count the wasted
	// controller operations — the cost I-structures avoid.
	var value interface{}
	pending := 0
	m := NewHEP(8, nil)
	retry := func(r HEPResponse) {
		pending--
		if r.OK {
			value = r.Value
			return
		}
		m.Enqueue(Request{Op: OpRead, Addr: r.Addr, ReplyTo: r.ReplyTo})
		pending++
	}
	m.respond = retry
	m.Enqueue(Request{Op: OpRead, Addr: 0, ReplyTo: "poller"})
	pending++
	for c := 0; c < 100; c++ {
		if c == 50 {
			m.Enqueue(Request{Op: OpWrite, Addr: 0, Value: 99})
		}
		m.Step(sim.Cycle(c))
	}
	if value != 99 {
		t.Fatalf("poller never got the value: %v", value)
	}
	if m.Stats().Retries.Value() < 10 {
		t.Fatalf("expected many busy-wait retries, got %d", m.Stats().Retries.Value())
	}
}
