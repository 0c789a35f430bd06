package serve

import "sync"

// flightGroup coalesces concurrent identical submissions: the first
// caller for a key becomes the leader and runs the job; callers
// arriving while it runs become followers and share the leader's
// result without executing anything. Coalescing is sound for the same
// reason the cache is exact — identical specs have exactly one possible
// result — and it is what keeps a thundering herd of one viral program
// from occupying every worker slot with redundant simulations.
//
// Unlike the cache, a flight entry lives only while its execution is in
// progress; completed results are the cache's job.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	body []byte
	err  error
	// followers counts callers that joined this call; the coalescing
	// tests use it to hold an execution open until every concurrent
	// submitter has provably joined.
	followers int
}

// do runs fn for key unless an identical call is already in flight, in
// which case it waits for that call's result. It reports whether this
// caller was the leader (ran fn itself); a follower whose own context
// ends while waiting abandons the wait via cancel returning a non-nil
// error. The leader's error — including the leader's own cancellation —
// is shared with every follower; the server retries follower-side on
// leader cancellation, promoting one follower to leader.
func (g *flightGroup) do(key string, cancel <-chan struct{}, cancelErr func() error, fn func() ([]byte, error)) (body []byte, err error, leader bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		c.followers++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.body, c.err, false
		case <-cancel:
			return nil, cancelErr(), false
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.body, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.body, c.err, true
}

// followersOf reports how many callers have joined key's in-flight
// call (0 when none is in flight).
func (g *flightGroup) followersOf(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.followers
	}
	return 0
}
