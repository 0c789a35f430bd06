package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/sweep"
)

// Options tunes a Server.
type Options struct {
	// Workers bounds concurrent simulations (default 2); Backlog bounds
	// submitters waiting for a worker slot (default 64). A submission
	// beyond both is shed with 503 rather than queued without limit.
	Workers int
	Backlog int
	// CacheEntries bounds the result cache, the request-body aliases in
	// front of it, and the finished async job records (default 4096
	// each).
	CacheEntries int
	// Timeout is the per-request simulation budget (default 30s); a job
	// that exceeds it is cut off at the next engine slice with 504.
	Timeout time.Duration
	// MaxBody caps request bodies (default MaxProgramBytes + 4 KiB);
	// larger submissions get 413.
	MaxBody int64
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.Backlog == 0 {
		o.Backlog = 64
	}
	if o.CacheEntries < 1 {
		o.CacheEntries = 4096
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxBody <= 0 {
		o.MaxBody = MaxProgramBytes + 4<<10
	}
	return o
}

// Server is the simulation service: validation, canonical keying, the
// result cache, request coalescing, and the bounded worker-pool job
// queue, behind an HTTP/JSON API (see Handler for the routes).
type Server struct {
	opts  Options
	pool  *sweep.Pool
	cache *Cache
	// aliases maps the SHA-256 of a /v1/run request body to the canonical
	// key that body normalized to, so a byte-identical repeat is answered
	// from the cache without decode, normalize or Key. An alias is exact
	// for the server's lifetime: the key is a function of the body and
	// the code version alone.
	aliases     *Cache
	flight      flightGroup
	mux         *http.ServeMux
	codeVersion string

	// baseCtx governs async (queued) jobs, which outlive their
	// submitting request; Close cancels it.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	executions atomic.Uint64
	coalesced  atomic.Uint64
	panics     atomic.Uint64

	jobsMu sync.Mutex
	jobs   map[string]*asyncJob
	// finished holds the ids of finished jobs, oldest first; past
	// CacheEntries the oldest one's record is dropped.
	finished []string
	nextJob  int

	// runStarted, when non-nil, runs at execution start — after the
	// worker slot is acquired, before the engine turns. Test hook: it
	// lets the coalescing and cancellation tests hold an execution open
	// deterministically instead of racing against simulation speed.
	runStarted func(key string)
}

// New builds a Server. Call Close when done to cancel queued async jobs
// and drain the worker pool.
func New(opts Options) *Server {
	s := &Server{
		opts:        opts.withDefaults(),
		codeVersion: buildinfo.CodeVersion(),
		jobs:        make(map[string]*asyncJob),
	}
	s.pool = sweep.NewPool(s.opts.Workers, s.opts.Backlog)
	s.cache = NewCache(s.opts.CacheEntries)
	s.aliases = NewCache(s.opts.CacheEntries)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return s
}

// Handler returns the API:
//
//	POST /v1/run           submit a job and wait for its result
//	POST /v1/jobs          submit a job asynchronously (202 + id)
//	GET  /v1/jobs/{id}     poll an async job
//	GET  /v1/results/{key} fetch a cached result by canonical key
//	GET  /v1/stats         queue, cache, and coalescing counters
//	GET  /v1/healthz       liveness
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the result cache (stats, tests).
func (s *Server) Cache() *Cache { return s.cache }

// CodeVersion is the stamp baked into every cache key and result.
func (s *Server) CodeVersion() string { return s.codeVersion }

// Close stops the server's compute side: queued async jobs are canceled
// at their next engine slice, new pool submissions are rejected, and
// Close blocks until running jobs finish. Shut the http.Server down
// first so no request-driven job is still being submitted.
func (s *Server) Close() {
	s.baseCancel()
	s.pool.Close()
	s.pool.Drain()
}

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	CodeVersion string `json:"code_version"`
	Executions  uint64 `json:"executions"`
	Coalesced   uint64 `json:"coalesced"`
	// Panics counts executions that panicked and were answered 500.
	Panics  uint64     `json:"panics"`
	Cache   CacheStats `json:"cache"`
	Workers int        `json:"workers"`
	Running int        `json:"running"`
	Waiting int        `json:"waiting"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		CodeVersion: s.codeVersion,
		Executions:  s.executions.Load(),
		Coalesced:   s.coalesced.Load(),
		Panics:      s.panics.Load(),
		Cache:       s.cache.Stats(),
		Workers:     s.pool.Workers(),
		Running:     s.pool.Running(),
		Waiting:     s.pool.Waiting(),
	}
}

// execute resolves one job end to end: cache, then coalesced execution
// through the worker pool. source reports how the bytes were produced:
// "hit", "miss" (this caller executed), or "coalesced" (another
// caller's execution was shared).
func (s *Server) execute(ctx context.Context, spec *JobSpec, key string) (body []byte, source string, err error) {
	for {
		if b, ok := s.cache.Get(key); ok {
			return b, "hit", nil
		}
		body, err, leader := s.flight.do(key, ctx.Done(), func() error { return ctx.Err() }, func() ([]byte, error) {
			var out []byte
			var runErr error
			if perr := s.pool.Do(ctx, func() {
				// A panic is a server fault, not the submitter's: answer
				// 500 with the key, cache nothing, and let the flight
				// hand the same error to every follower.
				defer func() {
					if p := recover(); p != nil {
						s.panics.Add(1)
						out, runErr = nil, errf(http.StatusInternalServerError, "internal error: job %s panicked: %v", key, p)
					}
				}()
				if s.runStarted != nil {
					s.runStarted(key)
				}
				res, rerr := runJob(ctx, spec)
				if rerr != nil {
					runErr = rerr
					return
				}
				res.Key, res.CodeVersion = key, s.codeVersion
				b, merr := json.Marshal(res)
				if merr != nil {
					runErr = merr
					return
				}
				b = append(b, '\n')
				s.cache.Put(key, b)
				s.executions.Add(1)
				out = b
			}); perr != nil {
				return nil, perr
			}
			return out, runErr
		})
		if !leader {
			if err == nil {
				s.coalesced.Add(1)
				return body, "coalesced", nil
			}
			// The leader's client vanished mid-run and took the
			// execution down with it. This caller is still live, so
			// retry: one follower is promoted to leader and the rest
			// coalesce onto it.
			if errors.Is(err, context.Canceled) && ctx.Err() == nil {
				continue
			}
			return nil, "", err
		}
		if err != nil {
			return nil, "", err
		}
		return body, "miss", nil
	}
}

// readBody reads the whole request body, up to MaxBody bytes; a longer
// body is 413 even when its first JSON value ends inside the limit.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, errf(http.StatusBadRequest, "read request: %v", err)
	}
	return raw, nil
}

// decodeSpec decodes and validates a request body into a normalized
// spec. Unknown fields are rejected — a typoed config knob must not
// silently run (and cache) the default configuration.
func decodeSpec(raw []byte) (*JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	spec := &JobSpec{}
	if err := dec.Decode(spec); err != nil {
		return nil, errf(http.StatusBadRequest, "decode request: %v", err)
	}
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	return spec, nil
}

// statusClientClosedRequest is nginx's conventional status for a client
// that disconnected; nothing reads the response, but mapping it keeps
// cancellations distinct from server faults in logs and tests.
const statusClientClosedRequest = 499

// writeErr maps an error to its one HTTP status and writes the JSON
// error body.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	msg := err.Error()
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		status = ae.Status
	case errors.Is(err, sweep.ErrSaturated):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
		msg = "job queue saturated; retry later"
	case errors.Is(err, sweep.ErrClosed):
		status = http.StatusServiceUnavailable
		msg = "server is shutting down"
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
		msg = "simulation exceeded the per-request timeout"
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%s}\n", mustJSONString(msg))
}

func mustJSONString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `"internal error"`
	}
	return string(b)
}

// handleRun answers a byte-identical repeat of an earlier body from its
// alias and the result cache; any other body (or an alias whose result
// was evicted or failed its checksum) is decoded, keyed and executed,
// and its alias is recorded once it has a key.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	raw, err := s.readBody(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	digest := sha256.Sum256(raw)
	alias := string(digest[:])
	if k, ok := s.aliases.Get(alias); ok {
		key := string(k)
		start := time.Now()
		if body, ok := s.cache.getHit(key); ok {
			writeResult(w, body, "hit", key, start)
			return
		}
	}
	spec, err := decodeSpec(raw)
	if err != nil {
		writeErr(w, err)
		return
	}
	key := spec.Key(s.codeVersion)
	s.aliases.Put(alias, []byte(key))
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	start := time.Now()
	body, source, err := s.execute(ctx, spec, key)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeResult(w, body, source, key, start)
}

// writeResult writes a /v1/run success: the result bytes, how they were
// produced, their key, and the server's time since start.
func writeResult(w http.ResponseWriter, body []byte, source, key string, start time.Time) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", source)
	h.Set("X-Key", key)
	h.Set("X-Wall-Ms", strconv.FormatFloat(float64(time.Since(start).Microseconds())/1e3, 'f', 3, 64))
	w.Write(body)
}

// asyncJob is one queued submission's lifecycle record.
type asyncJob struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State string `json:"state"` // queued | running | done | error
	Error string `json:"error,omitempty"`
	// Source mirrors X-Cache for the completing execution.
	Source string          `json:"source,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := s.readBody(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	spec, err := decodeSpec(raw)
	if err != nil {
		writeErr(w, err)
		return
	}
	key := spec.Key(s.codeVersion)
	s.jobsMu.Lock()
	s.nextJob++
	job := &asyncJob{ID: fmt.Sprintf("j-%d", s.nextJob), Key: key, State: "queued"}
	s.jobs[job.ID] = job
	s.jobsMu.Unlock()

	go func() {
		ctx, cancel := context.WithTimeout(s.baseCtx, s.opts.Timeout)
		defer cancel()
		s.setJob(job.ID, func(j *asyncJob) { j.State = "running" })
		body, source, err := s.execute(ctx, spec, key)
		s.finishJob(job.ID, body, source, err)
	}()

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"id\":%q,\"key\":%q}\n", job.ID, key)
}

func (s *Server) setJob(id string, mut func(*asyncJob)) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if j, ok := s.jobs[id]; ok {
		mut(j)
	}
}

// finishJob records a job's outcome and keeps at most CacheEntries
// finished records, dropping the oldest first: an evicted id answers
// 404, like an unknown one.
func (s *Server) finishJob(id string, body []byte, source string, err error) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j := s.jobs[id]
	if err != nil {
		j.State, j.Error = "error", err.Error()
	} else {
		j.State, j.Source, j.Result = "done", source, json.RawMessage(body)
	}
	s.finished = append(s.finished, id)
	if len(s.finished) > s.opts.CacheEntries {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.jobsMu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var snap asyncJob
	if ok {
		snap = *j
	}
	s.jobsMu.Unlock()
	if !ok {
		writeErr(w, errf(http.StatusNotFound, "unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	body, ok := s.cache.Get(key)
	if !ok {
		writeErr(w, errf(http.StatusNotFound, "no cached result for key %q", key))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", "hit")
	h.Set("X-Key", key)
	w.Write(body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}
