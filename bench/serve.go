package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/workload"
)

// Serve workload parameters.
const (
	// coldPopulation distinct specs are sent in a cycle against a result
	// cache of coldCacheEntries, so each is evicted long before it comes
	// round again: every request misses and eviction stays on the path.
	coldPopulation   = 4096
	coldCacheEntries = 1024
	// hotPopulation is how many distinct specs serve-hot's Zipf(hotZipfS)
	// traffic draws from; hotNovel is the share of novel, cold requests.
	hotPopulation = 256
	hotZipfS      = 1.1
	hotNovel      = 0.001
	// p99 latency limits on the handler's wall time.
	coldLimitMs = 50
	hotLimitMs  = 10
	// serveWarmup is the unmeasured stretch of requests before timing.
	serveWarmup = 500 * time.Millisecond
	// serveWindow is the width of the windows throughput and alloc_kb are
	// taken over; each is the median over windows, so a burst of load
	// from elsewhere on the host moves a few windows and not the result.
	serveWindow = time.Second
	// maxTracedRequests bounds the spans a traced phase records.
	maxTracedRequests = 20000
)

// reqSpec is one request of the serve mix with what its answer must be.
type reqSpec struct {
	body    []byte
	machine string
	minid   bool
	src     string // MiniID source, for the interpreter sample and the replay
	args    []int64
	pes     int
	netLat  uint64
	want    int64
	// interp puts the spec in the seed-chosen 1-in-8 sample whose answer
	// and firing count are also checked against graph.NewInterp.
	interp bool
}

var vnMachines = []string{"vn", "cmmp", "cmstar", "ultra", "hep"}

// drawSpec draws one spec from the mix: 50% generated MiniID on ttda, 10%
// paper programs on ttda, 15% generated MiniID on direct, 25% generated vn
// assembly on the von Neumann machines.
func drawSpec(rng *rand.Rand) reqSpec {
	var r reqSpec
	u := rng.Float64()
	switch {
	case u < 0.50 || (u >= 0.60 && u < 0.75):
		r.machine = "direct"
		if u < 0.50 {
			r.machine = "ttda"
		}
		w := conformance.Generate(rng.Uint64())
		scaled := w
		scaled.N = w.N * (1 + rng.Int63n(100))
		r.minid, r.src, r.args, r.want = true, w.IDSource(), []int64{scaled.N}, scaled.Expected()
		if r.machine == "ttda" {
			r.pes, r.netLat = []int{4, 8, 16}[rng.Intn(3)], 2
		}
	case u < 0.60:
		r.machine, r.minid = "ttda", true
		r.pes, r.netLat = []int{2, 4, 8, 16}[rng.Intn(4)], uint64(1+rng.Intn(8))
		switch rng.Intn(3) {
		case 0:
			n := 2 + rng.Intn(8)
			r.src, r.want = workload.MatMulID, workload.MatMulChecksum(n)
			r.args = []int64{int64(n)}
		case 1:
			n := 6 + rng.Intn(11)
			r.src, r.want = workload.FibID, fib(n)
			r.args = []int64{int64(n)}
		default:
			n := 6 + rng.Intn(23)
			r.src, r.want = workload.WavefrontID, workload.WavefrontExpected(n)
			r.args = []int64{int64(n)}
		}
	default:
		w := conformance.Generate(rng.Uint64())
		r.machine, r.src, r.want = vnMachines[rng.Intn(len(vnMachines))], w.ASMSource(), w.Expected()
	}
	r.interp = r.minid && rng.Intn(8) == 0
	spec := serve.JobSpec{Program: r.src, Machine: r.machine, Args: r.args, Kind: serve.KindVNAsm}
	if r.minid {
		spec.Kind = serve.KindMiniID
	}
	if r.machine == "ttda" {
		spec.Config = &serve.Config{PEs: r.pes, NetLatency: r.netLat}
	}
	r.body, _ = json.Marshal(spec) // a JobSpec holds only strings, numbers and bools
	return r
}

func fib(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// drawDistinct draws n specs whose request bodies differ from each other
// and from every body in seen, redrawing duplicates so the mix keeps its
// proportions. Every body is fully specified, so distinct bodies have
// distinct cache keys.
func drawDistinct(rng *rand.Rand, n int, seen map[string]bool) []reqSpec {
	out := make([]reqSpec, 0, n)
	for len(out) < n {
		r := drawSpec(rng)
		if seen[string(r.body)] {
			continue
		}
		seen[string(r.body)] = true
		out = append(out, r)
	}
	return out
}

// runResult is the part of a serve.RunResult the checks read.
type runResult struct {
	Results []string          `json:"results"`
	Result  *int64            `json:"result"`
	Stats   map[string]uint64 `json:"stats"`
}

// check compares a response body with the spec's expected answer and, for
// specs in the interpreter sample, with graph.NewInterp's answer and
// firing count.
func (r *reqSpec) check(body []byte) string {
	var rr runResult
	if err := json.Unmarshal(body, &rr); err != nil {
		return fmt.Sprintf("%s: undecodable body: %v", r.machine, err)
	}
	want := strconv.FormatInt(r.want, 10)
	switch {
	case !r.minid && (rr.Result == nil || *rr.Result != r.want):
		return fmt.Sprintf("%s: result %v, want %s", r.machine, rr.Result, want)
	case r.minid && (len(rr.Results) != 1 || rr.Results[0] != want):
		return fmt.Sprintf("%s %v: results %v, want [%s]", r.machine, r.args, rr.Results, want)
	case !r.interp:
		return ""
	}
	prog, args, err := r.compile()
	if err != nil {
		return err.Error()
	}
	it := graph.NewInterp(prog)
	res, err := it.Run(args...)
	if err != nil {
		return fmt.Sprintf("interp %v: %v", r.args, err)
	}
	if len(res) != 1 || res[0].String() != rr.Results[0] || it.Fired() != rr.Stats["fired"] {
		return fmt.Sprintf("%s %v: served %v fired %d, interpreter %v fired %d", r.machine, r.args, rr.Results, rr.Stats["fired"], res, it.Fired())
	}
	return ""
}

// compile builds the spec's MiniID program and entry arguments the way the
// server does.
func (r *reqSpec) compile() (*graph.Program, []token.Value, error) {
	prog, err := id.Compile(r.src)
	if err != nil {
		return nil, nil, fmt.Errorf("compile %v: %w", r.args, err)
	}
	vals := make([]token.Value, len(r.args))
	for i, a := range r.args {
		vals[i] = token.Int(a)
	}
	args, err := id.EntryArgs(prog, vals)
	return prog, args, err
}

// bodyBook holds the first 200 body seen for every key; every later 200
// for the key must be byte-identical to it.
type bodyBook struct {
	first    map[string]firstBody
	mismatch []string
}

type firstBody struct {
	sum  [sha256.Size]byte
	spec int
	body []byte
}

func newBodyBook() *bodyBook { return &bodyBook{first: map[string]firstBody{}} }

func (b *bodyBook) note(key string, spec int, body []byte) {
	sum := sha256.Sum256(body)
	f, ok := b.first[key]
	if !ok {
		b.first[key] = firstBody{sum: sum, spec: spec, body: append([]byte(nil), body...)}
		return
	}
	if f.sum != sum {
		b.mismatch = append(b.mismatch, fmt.Sprintf("key %s served two different bodies", key))
	}
}

// inproc is a serve.Server driven through its HTTP handler on the calling
// goroutine, without sockets. The /v1/run handler runs the job on its
// caller's goroutine, so a request's CPU time is the server's own work on
// it: decode, normalize, key, cache, compile, simulate, encode.
type inproc struct {
	srv *serve.Server
	h   http.Handler
}

func newInproc(cacheEntries int) *inproc {
	srv := serve.New(serve.Options{Workers: nproc, CacheEntries: cacheEntries})
	return &inproc{srv: srv, h: srv.Handler()}
}

// close drains the server's worker pool; no request is in flight, since
// every one ran on the caller's goroutine.
func (c *inproc) close() { c.srv.Close() }

// response is one /v1/run reply and what it cost.
type response struct {
	body       []byte
	key        string
	source     string  // X-Cache: hit, miss or coalesced
	serverMs   float64 // X-Wall-Ms: the server's own timing of execute
	cpuMs      float64 // CPU time of the handler call
	start, end time.Time
}

func (r response) wallMs() float64 { return float64(r.end.Sub(r.start).Nanoseconds()) / 1e6 }

func (c *inproc) post(body []byte) (response, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	start, c0 := time.Now(), cpuTime()
	c.h.ServeHTTP(rec, req)
	r := response{cpuMs: cpuMsSince(c0), start: start, end: time.Now()}
	r.body, r.key, r.source = rec.Body.Bytes(), rec.Header().Get("X-Key"), rec.Header().Get("X-Cache")
	if rec.Code != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(r.body))
	}
	if _, err := fmt.Sscanf(rec.Header().Get("X-Wall-Ms"), "%g", &r.serverMs); err != nil {
		return r, fmt.Errorf("X-Wall-Ms header: %v", err)
	}
	return r, nil
}

// observation is what the benchmark keeps of one traced response.
type observation struct {
	spec int
	resp response
	ok   bool
}

// serveBench drives one of the two serve workloads in a closed loop: one
// caller sends its next request as soon as the previous one returns.
type serveBench struct {
	cold    bool
	limitMs float64
	srv     *inproc
	specs   []reqSpec
	// serve-cold sends specs in order, cycling; serve-hot draws a Zipf
	// rank over the population, or with probability hotNovel a novel spec,
	// from rng, and rankSpec maps the rank to its spec.
	next     int
	rng      *rand.Rand
	zipf     *rand.Zipf
	rankSpec []int
	seen     map[string]bool
	book     *bodyBook
	// checked marks specs whose first body passed its answer check.
	checked map[int]bool
	// traced keeps the traced phase's responses for extras.
	traced []observation
}

func setupServeCold(seed uint64) (bench, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	return &serveBench{
		cold: true, limitMs: coldLimitMs,
		srv:   newInproc(coldCacheEntries),
		specs: drawDistinct(rng, coldPopulation, map[string]bool{}),
		book:  newBodyBook(), checked: map[int]bool{},
	}, nil
}

// setupServeHot draws the population, warms it into a fresh server's
// cache, checking every answer, and ranks it by size.
func setupServeHot(seed uint64) (bench, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	b := &serveBench{
		limitMs: hotLimitMs, rng: rng, seen: map[string]bool{},
		srv:  newInproc(0),
		book: newBodyBook(), checked: map[int]bool{},
	}
	b.specs = drawDistinct(rng, hotPopulation, b.seen)
	b.zipf = rand.NewZipf(rng, hotZipfS, 1, hotPopulation-1)
	out := &outcome{}
	size := make([]int, hotPopulation)
	for i := range b.specs {
		resp, _ := b.send(i, out) // a failure is counted in out
		size[i] = len(b.specs[i].body) + len(resp.body)
	}
	out.wrong = append(out.wrong, b.verify()...)
	if len(out.wrong) > 0 || out.failed > 0 {
		b.close()
		return nil, fmt.Errorf("warming the population: %d failed %v, wrong: %v", out.failed, out.failures, out.wrong)
	}
	b.rankSpec = rankBySize(size)
	return b, nil
}

func (b *serveBench) close() { b.srv.close() }

// nextSpec picks the index of the next request's spec.
func (b *serveBench) nextSpec() int {
	if b.cold {
		i := b.next % len(b.specs)
		b.next++
		return i
	}
	if b.rng.Float64() < hotNovel {
		b.specs = append(b.specs, drawDistinct(b.rng, 1, b.seen)...)
		return len(b.specs) - 1
	}
	return b.rankSpec[b.zipf.Uint64()]
}

// rankBySize gives the Zipf ranks to the population in a fixed pattern of
// size quantiles, size being the bytes of request and response: rank 0 the
// median spec, ranks 1 and 2 the first and third quartiles, then the
// octiles, and so on (the van der Corput sequence; hotPopulation is 256 for
// it). A hit costs about its size, and under Zipf(1.1) the first ten ranks
// take over half the requests. When the seed also chose which specs those
// were, the mean size of a request ranged from 594 to 887 bytes over seeds
// 1 to 10; ranked by quantile, from 593 to 650. The seed still draws every
// spec and the request stream.
func rankBySize(size []int) []int {
	bySize := make([]int, len(size))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, c int) bool { return size[bySize[a]] < size[bySize[c]] })
	ranks := make([]int, len(size))
	for r := range ranks {
		ranks[r] = bySize[bits.Reverse8(uint8(r+1))]
	}
	return ranks
}

// send posts spec i and records the response. It returns the response and
// whether the request succeeded.
func (b *serveBench) send(i int, out *outcome) (response, bool) {
	resp, err := b.srv.post(b.specs[i].body)
	out.attempted++
	if err != nil {
		out.failed++
		if len(out.failures) < 20 {
			out.failures = append(out.failures, fmt.Sprintf("%s request: %v", b.specs[i].machine, err))
		}
		return resp, false
	}
	b.book.note(resp.key, i, resp.body)
	return resp, true
}

// verify checks the first body of every key not yet checked against its
// spec, and reports every byte-identity mismatch.
func (b *serveBench) verify() []string {
	wrong := append([]string(nil), b.book.mismatch...)
	b.book.mismatch = nil
	for _, f := range b.book.first {
		if b.checked[f.spec] {
			continue
		}
		b.checked[f.spec] = true
		if msg := b.specs[f.spec].check(f.body); msg != "" {
			wrong = append(wrong, msg)
		}
	}
	return wrong
}

// run warms up, then sends requests back to back until e.seconds have
// passed, in windows of serveWindow. The answers are checked after the
// timed phase.
func (b *serveBench) run(e env) (*outcome, error) {
	out := &outcome{
		work: "requests", op: "request",
		phases: map[string]float64{}, layers: map[string]float64{},
	}
	w0 := time.Now()
	for time.Since(w0) < serveWarmup {
		b.send(b.nextSpec(), out)
	}
	out.attempted, out.failed = 0, 0
	out.phases["warmup"] = time.Since(w0).Seconds()

	var latMs []float64 // handler wall time, +Inf for a failure
	var obs []observation
	var winOps []float64 // the window's handler CPU times, +Inf for a failure
	start := time.Now()
	winEnd, winCPU, a0 := start.Add(serveWindow), 0.0, allocatedBytes()
	for req := int64(1); len(out.rates) == 0 || time.Since(start).Seconds() < e.seconds; req++ {
		i := b.nextSpec()
		rs := time.Now()
		resp, ok := b.send(i, out)
		if ok {
			winOps = append(winOps, resp.cpuMs)
			latMs = append(latMs, resp.wallMs())
			winCPU += resp.cpuMs
		} else {
			winOps = append(winOps, math.Inf(1))
			latMs = append(latMs, math.Inf(1))
		}
		if e.tr != nil && len(obs) < maxTracedRequests {
			obs = append(obs, observation{spec: i, resp: resp, ok: ok})
			re := time.Now()
			root := e.tr.add("serve.request", 0, req, 0, rs, re)
			// The client's own work around the handler call: building
			// the request, then reading and fingerprinting the response.
			e.tr.add("client.build", root, req, 0, rs, resp.start)
			e.tr.add("client.read", root, req, 0, resp.end, re)
			h := e.tr.add("http.Handler.ServeHTTP", root, req, 0, resp.start, resp.end)
			if ok {
				// Only the server time's length is measured; it is drawn
				// at the end of the handler span.
				e.tr.add("serve.Server.execute", h, req, 0, resp.end.Add(-time.Duration(resp.serverMs*1e6)), resp.end)
			}
		}
		if !time.Now().Before(winEnd) {
			n := float64(len(winOps))
			out.endWindow(n/(winCPU/1e3), (allocatedBytes()-a0)/1024/n, winOps)
			winEnd, winOps, winCPU, a0 = time.Now().Add(serveWindow), winOps[:0], 0, allocatedBytes()
		}
	}
	wall := time.Since(start)
	out.phases["timed"] = wall.Seconds()
	out.wrong = append(out.wrong, b.verify()...)

	asc := sorted(latMs)
	p99 := nearestRank(asc, 0.99)
	verdict := "met"
	if !(p99 <= b.limitMs) {
		verdict = "MISSED"
	}
	note := fmt.Sprintf("limit p99 handler wall time %.3f ms against %.0f ms: %s (n=%d, %d beyond)", p99, b.limitMs, verdict, len(asc), beyond(len(asc), 0.99))
	if !reportable(len(asc), 0.99) {
		note += fmt.Sprintf(" (fewer than %d beyond: read it as the run's tail)", minBeyond)
	}
	out.notes = append(out.notes, note)
	if e.tr == nil {
		return out, nil
	}
	b.traced = obs
	l := out.layers
	l["serve.p99_ms"] = p99
	l["serve.capacity_rps"] = float64(len(latMs)) / wall.Seconds()
	b.tracedLayers(e.tr, obs, l)
	return out, nil
}

// tracedLayers computes the serve layer metrics measured from outside:
// server time from X-Wall-Ms, the front end (handler time minus server
// time: HTTP parsing, decode, normalize, key and write), and the server's
// own counters.
func (b *serveBench) tracedLayers(tr *tracer, obs []observation, l map[string]float64) {
	var server, front []float64
	perMachine := map[string][]float64{}
	var hits, coalesced, completed float64
	for _, o := range obs {
		if !o.ok {
			continue
		}
		completed++
		server = append(server, o.resp.serverMs)
		front = append(front, o.resp.wallMs()-o.resp.serverMs)
		m := b.specs[o.spec].machine
		perMachine[m] = append(perMachine[m], o.resp.serverMs)
		switch o.resp.source {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		}
	}
	p := func(xs []float64, q float64) float64 { return nearestRank(sorted(xs), q) }
	l["serve.server_ms.p50"], l["serve.server_ms.p99"] = p(server, 0.5), p(server, 0.99)
	for _, m := range serveMachines {
		if xs := perMachine[m]; len(xs) > 0 {
			l["serve.server_ms."+m+".p50"], l["serve.server_ms."+m+".p99"] = p(xs, 0.5), p(xs, 0.99)
		}
	}
	l["serve.front_ms.p50"] = p(front, 0.5)
	l["serve.hit_frac"] = ratio(hits, completed)
	l["serve.coalesced_frac"] = ratio(coalesced, completed)
	st := b.srv.srv.Stats()
	l["serve.executions"] = float64(st.Executions)
	l["serve.cache.evictions"] = float64(st.Cache.Evictions)
	l["serve.cache.corruptions"] = float64(st.Cache.Corruptions)
	l["trace.coverage_frac"] = tr.coverage("serve.request")
}

// extras times the result cache and the canonical key on their own, with
// this run's keys and bodies, and for serve-cold replays the traced phase's
// ttda and direct misses to split server time into compile, build, run,
// and the rest (cache and encoding).
func (b *serveBench) extras(l map[string]float64) ([]string, error) {
	keys := make([]string, 0, len(b.book.first))
	bodies := make([][]byte, 0, len(b.book.first))
	specs := make([]int, 0, len(b.book.first))
	for k, f := range b.book.first {
		keys, bodies, specs = append(keys, k), append(bodies, f.body), append(specs, f.spec)
	}
	cache := serve.NewCache(len(keys))
	var put, get, key []float64
	for i, k := range keys {
		t0 := time.Now()
		cache.Put(k, bodies[i])
		put = append(put, usSince(t0))
	}
	for _, k := range keys {
		t0 := time.Now()
		if _, ok := cache.Get(k); !ok {
			return nil, fmt.Errorf("standalone cache lost key %s", k)
		}
		get = append(get, usSince(t0))
	}
	version := b.srv.srv.CodeVersion()
	for _, s := range specs {
		var js serve.JobSpec
		if err := json.Unmarshal(b.specs[s].body, &js); err != nil {
			return nil, err
		}
		if js.Config == nil {
			js.Config = &serve.Config{}
		}
		t0 := time.Now()
		js.Key(version)
		key = append(key, usSince(t0))
	}
	l["serve.cache.put_us"], l["serve.cache.get_us"], l["serve.key_us"] = median(put), median(get), median(key)
	if b.cold {
		return b.replay(l)
	}
	return nil, nil
}

// replayBudget bounds the replay's wall time.
const replayBudget = 3 * time.Second

// replay re-runs the traced ttda and direct misses through id.Compile,
// core.NewMachine or direct.New, and Run, and attributes each request's
// server time to those steps and a residual.
func (b *serveBench) replay(l map[string]float64) ([]string, error) {
	var compile, build, run, residual, ttdaBuild, directBuild []float64
	start := time.Now()
	for _, o := range b.traced {
		s := &b.specs[o.spec]
		if !o.ok || o.resp.source != "miss" || !s.minid || time.Since(start) > replayBudget {
			continue
		}
		t0 := time.Now()
		prog, args, err := s.compile()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		var exec func() error
		if s.machine == "ttda" {
			m := core.NewMachine(core.Config{PEs: s.pes, NetLatency: sim.Cycle(s.netLat)}, prog)
			exec = func() error { _, err := m.Run(50_000_000, args...); return err }
		} else {
			x := direct.New(prog)
			exec = func() error { _, err := x.Run(args...); return err }
		}
		t2 := time.Now()
		if err := exec(); err != nil {
			return []string{fmt.Sprintf("replay %s %v: %v", s.machine, s.args, err)}, nil
		}
		t3 := time.Now()
		c, bd, r := ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2))
		compile, build, run = append(compile, c), append(build, bd), append(run, r)
		residual = append(residual, o.resp.serverMs-c-bd-r)
		if s.machine == "ttda" {
			ttdaBuild = append(ttdaBuild, bd)
		} else {
			directBuild = append(directBuild, bd)
		}
	}
	l["serve.compile_ms"], l["serve.build_ms"], l["serve.run_ms"], l["serve.residual_ms"] = median(compile), median(build), median(run), median(residual)
	l["id.compile_ms"] = median(compile)
	l["core.construct_ms"] = median(ttdaBuild)
	l["direct.construct_us"] = median(directBuild) * 1e3
	return nil, nil
}
