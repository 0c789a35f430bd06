package sim

// FIFO is a growable ring-buffer queue. It replaces the copy-on-pop slice
// queues in the simulator hot paths: Push and Pop are O(1) amortized and
// the buffer is reused across a run, so a machine that floods a queue with
// thousands of tokens no longer pays a memmove per dequeue or an
// allocation per refill. Order is strictly first-in first-out — the
// deterministic-simulation contract depends on it. The zero FIFO is ready
// to use.
//
// Slot, Head and Drop give in-place access for large element types: a
// producer fills the tail slot where it sits and a consumer reads the head
// where it sits, so an element is not copied through the stack on its way
// in or out (the simulators' tokens are 48 bytes, their enabled-instruction
// records 64). A pointer from Slot or Head stays valid until the next Slot
// or Push, which may grow the ring and move every element; a pointer to
// the head also lapses at its Drop.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Empty reports whether the queue holds nothing.
func (q *FIFO[T]) Empty() bool { return q.n == 0 }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) { *q.Slot() = v }

// Slot appends an element at the tail and returns it for the caller to
// fill. The slot keeps whatever the ring last held there (see Drop), so
// the caller must write every field.
func (q *FIFO[T]) Slot() *T {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := (q.head + q.n) & (len(q.buf) - 1)
	q.n++
	return &q.buf[i]
}

// Pop removes and returns the head element. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // release references for the garbage collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Head returns the head element where it sits. It panics on an empty
// queue.
func (q *FIFO[T]) Head() *T {
	if q.n == 0 {
		panic("sim: Head of empty FIFO")
	}
	return &q.buf[q.head]
}

// Drop removes the head element without clearing its slot. Only for
// element types that contain no pointers: the stale copy left in the
// buffer is invisible to callers but would pin garbage if T referenced
// the heap (use Pop for those). It panics on an empty queue.
func (q *FIFO[T]) Drop() {
	if q.n == 0 {
		panic("sim: Drop of empty FIFO")
	}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// Peek returns the head element without removing it. It panics on an
// empty queue.
func (q *FIFO[T]) Peek() T {
	if q.n == 0 {
		panic("sim: Peek of empty FIFO")
	}
	return q.buf[q.head]
}

// At returns the i-th element from the head (0 = next to pop).
func (q *FIFO[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// grow doubles the buffer (minimum 8), unwrapping the ring so head is 0.
func (q *FIFO[T]) grow() {
	nb := make([]T, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}
