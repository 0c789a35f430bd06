package sim

import "testing"

// fifoElem is large enough that a slot holds several words, so a write
// through a stale or misplaced slot pointer shows up in the contents.
type fifoElem struct {
	seq  int64
	pad  [3]int32
	mark int64
}

func mkElem(seq int64) fifoElem {
	return fifoElem{seq: seq, pad: [3]int32{int32(seq), int32(-seq), 7}, mark: ^seq}
}

// checkFIFO compares q with the reference slice element by element.
func checkFIFO(t *testing.T, step int, q *FIFO[fifoElem], ref []fifoElem) {
	t.Helper()
	if q.Len() != len(ref) || q.Empty() != (len(ref) == 0) {
		t.Fatalf("step %d: Len %d, Empty %t; reference holds %d", step, q.Len(), q.Empty(), len(ref))
	}
	for i, want := range ref {
		if got := q.At(i); got != want {
			t.Fatalf("step %d: At(%d) = %+v, want %+v", step, i, got, want)
		}
	}
}

// TestFIFOInPlaceMatchesReference drives Push, Slot, Head, Drop and Pop in
// a seeded random interleaving against a plain slice and checks order and
// contents after every operation.
func TestFIFOInPlaceMatchesReference(t *testing.T) {
	var q FIFO[fifoElem]
	var ref []fifoElem
	seq := int64(0)
	push := func() {
		seq++
		q.Push(mkElem(seq))
		ref = append(ref, mkElem(seq))
	}
	slot := func() {
		seq++
		*q.Slot() = mkElem(seq)
		ref = append(ref, mkElem(seq))
	}

	// Fill the first ring, move the head, and wrap the tail round so the
	// ring is full with head != 0: the next Slot grows it while wrapped.
	for i := 0; i < 8; i++ {
		push()
	}
	for i := 0; i < 3; i++ {
		q.Drop()
		ref = ref[1:]
	}
	for i := 0; i < 3; i++ {
		slot()
	}
	if q.head == 0 || q.n != len(q.buf) {
		t.Fatalf("setup: head %d, %d of %d slots used; want a full, wrapped ring", q.head, q.n, len(q.buf))
	}
	slot()
	checkFIFO(t, 0, &q, ref)

	rng := NewRNG(15)
	target := 0
	for step := 1; step <= 120_000; step++ {
		// The length drifts toward a target redrawn every 2000 steps, a
		// quarter of them below zero, so the queue empties, refills, wraps
		// and now and then outgrows its ring.
		if step%2000 == 1 {
			target = rng.Intn(400) - 100
		}
		produce := rng.Intn(4) == 0
		if len(ref) < target {
			produce = rng.Intn(4) != 0
		}
		switch op := rng.Intn(3); {
		case produce && op == 0:
			push()
		case produce:
			slot()
		case len(ref) == 0:
		case op == 0:
			if got := *q.Head(); got != ref[0] {
				t.Fatalf("step %d: Head = %+v, want %+v", step, got, ref[0])
			}
			// A write through Head lands on the queued element.
			q.Head().mark = int64(step)
			ref[0].mark = int64(step)
		case op == 1:
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: Pop = %+v, want %+v", step, got, ref[0])
			}
			ref = ref[1:]
		default:
			q.Drop()
			ref = ref[1:]
		}
		checkFIFO(t, step, &q, ref)
	}
}

func TestFIFOHeadAndDropEmptyPanic(t *testing.T) {
	for name, f := range map[string]func(*FIFO[int]){
		"Head": func(q *FIFO[int]) { q.Head() },
		"Drop": func(q *FIFO[int]) { q.Drop() },
	} {
		func() {
			var q FIFO[int]
			q.Push(1)
			q.Pop()
			defer func() {
				if recover() == nil {
					t.Errorf("%s of an empty FIFO must panic", name)
				}
			}()
			f(&q)
		}()
	}
}

func TestFIFOOrderAndWraparound(t *testing.T) {
	var q FIFO[int]
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero FIFO must be empty")
	}
	// Interleave pushes and pops so the ring wraps several times.
	next, expect := 0, 0
	for round := 0; round < 20; round++ {
		for i := 0; i < 7; i++ {
			q.Push(next)
			next++
		}
		if q.Peek() != expect {
			t.Fatalf("Peek = %d, want %d", q.Peek(), expect)
		}
		for i := 0; i < q.Len(); i++ {
			if got := q.At(i); got != expect+i {
				t.Fatalf("At(%d) = %d, want %d", i, got, expect+i)
			}
		}
		for i := 0; i < 5; i++ {
			if got := q.Pop(); got != expect {
				t.Fatalf("Pop = %d, want %d (FIFO order violated)", got, expect)
			}
			expect++
		}
	}
	for !q.Empty() {
		if got := q.Pop(); got != expect {
			t.Fatalf("drain Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("popped %d items, pushed %d", expect, next)
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	var q FIFO[int]
	defer func() {
		if recover() == nil {
			t.Fatal("Pop of empty FIFO must panic")
		}
	}()
	q.Pop()
}

func TestFIFOPeekEmptyPanics(t *testing.T) {
	var q FIFO[int]
	defer func() {
		if recover() == nil {
			t.Fatal("Peek of empty FIFO must panic")
		}
	}()
	q.Peek()
}

func TestFIFOAtOutOfRangePanics(t *testing.T) {
	var q FIFO[int]
	q.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("At past the tail must panic")
		}
	}()
	q.At(1)
}
