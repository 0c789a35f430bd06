package sweep

import (
	"context"
	"errors"
	"sync/atomic"
)

// Pool errors.
var (
	// ErrSaturated reports a Do that found the backlog full; callers
	// (the serve job queue) surface it as back-pressure, e.g. HTTP 503.
	ErrSaturated = errors.New("sweep: pool saturated")
	// ErrClosed reports a Do after Close.
	ErrClosed = errors.New("sweep: pool closed")
)

// Pool is the dynamic sibling of Run: a long-lived bounded worker pool
// for job streams whose points arrive over time (a server's request
// traffic) instead of as a slice known up front. It shares Run's bounded
// concurrency and adds what a server needs — context cancellation honored
// while queued, explicit back-pressure instead of unbounded buffering —
// and runs each job on its submitter's goroutine once a worker slot
// frees, so results and errors flow back without any channel plumbing.
//
// Concurrency is bounded by the slot count; the number of submitters
// allowed to wait for a slot is bounded by the backlog. A submission
// beyond both bounds fails fast with ErrSaturated rather than queueing
// without limit — under overload the caller must shed, not buffer.
type Pool struct {
	slots   chan struct{}
	backlog int64
	waiting atomic.Int64
	running atomic.Int64
	closed  atomic.Bool
}

// NewPool sizes a pool: workers concurrent jobs (minimum 1), backlog
// additional submitters allowed to wait for a slot (minimum 0).
func NewPool(workers, backlog int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if backlog < 0 {
		backlog = 0
	}
	return &Pool{slots: make(chan struct{}, workers), backlog: int64(backlog)}
}

// Do runs fn on the calling goroutine once a worker slot is free. It
// returns ErrSaturated immediately when the backlog is full, ErrClosed
// after Close, and ctx.Err() if the context ends while still waiting for
// a slot — a submitter that gives up while queued never occupies a slot.
// Cancellation after fn starts is fn's own responsibility (the serve
// runners poll their context between engine slices).
func (p *Pool) Do(ctx context.Context, fn func()) error {
	if p.closed.Load() {
		return ErrClosed
	}
	if w := p.waiting.Add(1); w > int64(cap(p.slots))+p.backlog {
		p.waiting.Add(-1)
		return ErrSaturated
	}
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		p.waiting.Add(-1)
		return ctx.Err()
	}
	p.waiting.Add(-1)
	p.running.Add(1)
	defer func() {
		p.running.Add(-1)
		<-p.slots
	}()
	fn()
	return nil
}

// Running reports jobs currently holding a worker slot.
func (p *Pool) Running() int { return int(p.running.Load()) }

// Waiting reports submitters queued for a slot plus those mid-handoff.
func (p *Pool) Waiting() int {
	if w := p.waiting.Load(); w > 0 {
		return int(w)
	}
	return 0
}

// Workers reports the slot count.
func (p *Pool) Workers() int { return cap(p.slots) }

// Close rejects subsequent Do calls. Jobs already running (or already
// past the closed check) finish normally; use Drain to wait for them.
func (p *Pool) Close() { p.closed.Store(true) }

// Drain blocks until every worker slot is simultaneously free — i.e.
// all running jobs have finished. Call it after Close (and after the
// submitting side has stopped, e.g. http.Server.Shutdown returned);
// draining a pool still being submitted to only races with the queue.
func (p *Pool) Drain() {
	for i := 0; i < cap(p.slots); i++ {
		p.slots <- struct{}{}
	}
	for i := 0; i < cap(p.slots); i++ {
		<-p.slots
	}
}
