package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Test programs. storeAsm(v) stores v at ResultAddr and halts in one
// engine slice; countdownAsm spins long enough to span several slices
// before storing 7; spinAsm never halts.
func storeAsm(v int) string {
	return fmt.Sprintf("        li   r1, %d\n        li   r2, %d\n        st   r1, r2, 0\n        halt\n", v, ResultAddr)
}

const countdownAsm = `        li   r1, 30000
        li   r2, 1
loop:   sub  r1, r1, r2
        bne  r1, r0, loop
        li   r3, 7
        li   r4, 64
        st   r3, r4, 0
        halt
`

const spinAsm = "spin:   j    spin\n        halt\n"

const doubleID = "def main(n) = n * 2;"

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Close)
	return s
}

// doJSON drives the handler directly (no network); the HTTP-level tests
// that need a real client connection use httptest.NewServer instead.
func doJSON(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

func runBody(t *testing.T, kind, machine, program string, args []int64) string {
	return specBody(t, &JobSpec{Kind: kind, Machine: machine, Program: program, Args: args})
}

func specBody(t *testing.T, spec *JobSpec) string {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func decodeResult(t *testing.T, body []byte) *RunResult {
	t.Helper()
	res := &RunResult{}
	if err := json.Unmarshal(body, res); err != nil {
		t.Fatalf("decode result: %v\nbody: %s", err, body)
	}
	return res
}

func TestRunMiniID(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, machine := range []string{"interp", "ttda"} {
		body := runBody(t, KindMiniID, machine, doubleID, []int64{21})
		rr := doJSON(t, s, "POST", "/v1/run", body)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", machine, rr.Code, rr.Body)
		}
		if got := rr.Header().Get("X-Cache"); got != "miss" {
			t.Errorf("%s: X-Cache = %q, want miss", machine, got)
		}
		res := decodeResult(t, rr.Body.Bytes())
		if len(res.Results) != 1 || res.Results[0] != "42" {
			t.Errorf("%s: results = %v, want [42]", machine, res.Results)
		}
		if res.Key == "" || res.CodeVersion != s.CodeVersion() {
			t.Errorf("%s: key %q / code_version %q not stamped", machine, res.Key, res.CodeVersion)
		}
		if machine == "ttda" && (res.Cycles == 0 || res.Engine == nil) {
			t.Errorf("ttda: cycles %d, engine %v — want cycle-accurate counters", res.Cycles, res.Engine)
		}

		again := doJSON(t, s, "POST", "/v1/run", body)
		if got := again.Header().Get("X-Cache"); got != "hit" {
			t.Errorf("%s repeat: X-Cache = %q, want hit", machine, got)
		}
		if again.Body.String() != rr.Body.String() {
			t.Errorf("%s repeat: hit body differs from cold body", machine)
		}
	}
}

func TestRunVNAndBaselines(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, machine := range []string{"vn", "cmmp", "cmstar", "ultra", "hep"} {
		rr := doJSON(t, s, "POST", "/v1/run", runBody(t, KindVNAsm, machine, storeAsm(7), nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", machine, rr.Code, rr.Body)
		}
		res := decodeResult(t, rr.Body.Bytes())
		if res.Result == nil || *res.Result != 7 {
			t.Errorf("%s: result = %v, want 7", machine, res.Result)
		}
		if res.Cycles == 0 || res.Engine == nil {
			t.Errorf("%s: cycles %d, engine %v — want cycle-accurate counters", machine, res.Cycles, res.Engine)
		}
	}
}

func TestRunExperiment(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := doJSON(t, s, "POST", "/v1/run", `{"experiment":"E5"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	res := decodeResult(t, rr.Body.Bytes())
	if res.Experiment != "E5" || res.Finding == "" || len(res.Tables) == 0 {
		t.Errorf("experiment result incomplete: %+v", res)
	}
}

// TestErrorContract pins the one-status-per-failure contract: malformed
// programs are 400, unknown machines and experiments are 404, budget
// exhaustion is 422.
func TestErrorContract(t *testing.T) {
	s := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", "{", http.StatusBadRequest},
		{"unknown field", `{"progrm":"x"}`, http.StatusBadRequest},
		{"empty spec", `{}`, http.StatusBadRequest},
		{"program and experiment", `{"experiment":"E1","kind":"minid","machine":"ttda","program":"def main(n) = n;"}`, http.StatusBadRequest},
		{"unknown experiment", `{"experiment":"E15"}`, http.StatusNotFound},
		{"ablation as experiment", `{"experiment":"A1"}`, http.StatusNotFound},
		{"lower-case experiment", `{"experiment":"e1"}`, http.StatusNotFound},
		{"unknown machine", runBody(t, KindMiniID, "vax", doubleID, nil), http.StatusNotFound},
		{"unknown kind", runBody(t, "fortran", "ttda", doubleID, nil), http.StatusBadRequest},
		{"kind/machine mismatch", runBody(t, KindMiniID, "vn", doubleID, nil), http.StatusBadRequest},
		{"args on vnasm", runBody(t, KindVNAsm, "vn", storeAsm(1), []int64{3}), http.StatusBadRequest},
		{"minid syntax error", runBody(t, KindMiniID, "interp", "def main( = ;", nil), http.StatusBadRequest},
		{"minid syntax error on ttda", runBody(t, KindMiniID, "ttda", "def main( = ;", nil), http.StatusBadRequest},
		{"vnasm syntax error", runBody(t, KindVNAsm, "vn", "frob r1, r2", nil), http.StatusBadRequest},
		{"max_cycles over cap", `{"kind":"minid","machine":"ttda","program":"def main(n) = n;","config":{"max_cycles":600000000}}`, http.StatusBadRequest},
		{"removed compiled knob", `{"kind":"minid","machine":"ttda","program":"def main(n) = n;","args":[3],"config":{"compiled":true}}`, http.StatusBadRequest},
		{"removed shards knob", `{"kind":"minid","machine":"ttda","program":"def main(n) = n;","args":[3],"config":{"shards":2}}`, http.StatusBadRequest},
		{"removed epoch_window knob", `{"kind":"minid","machine":"ttda","program":"def main(n) = n;","args":[3],"config":{"epoch_window":8}}`, http.StatusBadRequest},
		{"pes over the limit", `{"kind":"minid","machine":"ttda","program":"def main(n) = n + 1;","args":[1],"config":{"pes":35184372088832}}`, http.StatusBadRequest},
		{"contexts over the limit", `{"kind":"vnasm","machine":"vn","program":"halt","config":{"contexts":35184372088832}}`, http.StatusBadRequest},
		{"cycle budget exhausted", specBody(t, &JobSpec{Kind: KindVNAsm, Machine: "vn", Program: spinAsm, Config: &Config{MaxCycles: 100_000}}), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doJSON(t, s, "POST", "/v1/run", tc.body)
			if rr.Code != tc.want {
				t.Fatalf("status = %d, want %d: %s", rr.Code, tc.want, rr.Body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("error body %q is not {\"error\":...}: %v", rr.Body, err)
			}
			assertHealthy(t, s)
		})
	}
}

// TestUnknownExperimentText pins the 404 text of an experiment job that
// names no paper experiment: its range comes from experiments.List.
func TestUnknownExperimentText(t *testing.T) {
	for _, id := range []string{"E15", "A1", "e1"} {
		want := fmt.Sprintf("unknown experiment %q (want E1..E14)", id)
		if err := (&JobSpec{Experiment: id}).normalize(); err == nil || err.Error() != want {
			t.Errorf("normalize(%q) = %v, want %q", id, err, want)
		}
	}
}

// TestOversizedBody413: a body longer than MaxBody is 413, even when its
// first JSON value ends inside the limit.
func TestOversizedBody413(t *testing.T) {
	s := newTestServer(t, Options{MaxBody: 512})
	spec := runBody(t, KindVNAsm, "vn", storeAsm(1), nil)
	for name, body := range map[string]string{
		"long program":          runBody(t, KindVNAsm, "vn", strings.Repeat("; padding\n", 200)+storeAsm(1), nil),
		"spaces after the spec": spec + strings.Repeat(" ", 512),
	} {
		if rr := doJSON(t, s, "POST", "/v1/run", body); rr.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413: %s", name, rr.Code, rr.Body)
		}
	}
}

func TestOversizedProgram400(t *testing.T) {
	// A program over MaxProgramBytes inside a body the transport still
	// accepts must fail validation (400), not body-limit truncation.
	s := newTestServer(t, Options{MaxBody: 2 * MaxProgramBytes})
	body := runBody(t, KindVNAsm, "vn", strings.Repeat("; x\n", MaxProgramBytes/4+16)+storeAsm(1), nil)
	rr := doJSON(t, s, "POST", "/v1/run", body)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", rr.Code, rr.Body)
	}
}

func TestPerRequestTimeout504(t *testing.T) {
	s := newTestServer(t, Options{Timeout: 50 * time.Millisecond})
	rr := doJSON(t, s, "POST", "/v1/run", runBody(t, KindVNAsm, "vn", spinAsm, nil))
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rr.Code, rr.Body)
	}
}

// TestCancellationFreesWorker is the client-disconnect contract: a
// canceled request must stop its simulation at the next engine slice and
// release the worker slot, and the aborted run must not count (or be
// cached) as an execution.
func TestCancellationFreesWorker(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, Backlog: 8})
	started := make(chan struct{}, 2)
	s.runStarted = func(string) { started <- struct{}{} }

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(runBody(t, KindVNAsm, "vn", spinAsm, nil))).WithContext(ctx)
	rr := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rr, req)
	}()
	<-started // the spin job holds the only worker slot
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled request did not return; the engine kept the worker slot")
	}
	if rr.Code != statusClientClosedRequest {
		t.Errorf("canceled request status = %d, want %d: %s", rr.Code, statusClientClosedRequest, rr.Body)
	}

	// The slot must be free again: a quick job on the same 1-worker pool
	// completes.
	rr2 := doJSON(t, s, "POST", "/v1/run", runBody(t, KindVNAsm, "vn", storeAsm(7), nil))
	if rr2.Code != http.StatusOK {
		t.Fatalf("follow-up job status = %d, want 200: %s", rr2.Code, rr2.Body)
	}
	st := s.Stats()
	if st.Executions != 1 {
		t.Errorf("executions = %d, want 1 (the aborted run must not count)", st.Executions)
	}
	if st.Running != 0 || st.Waiting != 0 {
		t.Errorf("pool not quiescent after cancellation: running %d waiting %d", st.Running, st.Waiting)
	}
}

// TestSaturation503 pins the back-pressure contract: submissions beyond
// workers+backlog are shed with 503 and a Retry-After hint.
func TestSaturation503(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, Backlog: -1}) // backlog clamps to 0
	gate := make(chan struct{})
	s.runStarted = func(string) { <-gate }
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()

	aDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/run", strings.NewReader(runBody(t, KindVNAsm, "vn", storeAsm(7), nil))))
		aDone <- rr
	}()
	waitFor(t, "job A running", func() bool { return s.Stats().Running == 1 })

	// B (a distinct key, so it cannot coalesce with A) occupies the one
	// permitted waiter slot...
	bDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/run", strings.NewReader(runBody(t, KindVNAsm, "vn", storeAsm(8), nil))))
		bDone <- rr
	}()
	waitFor(t, "job B waiting", func() bool { return s.Stats().Waiting >= 1 })

	// ...so C must be shed immediately.
	rrC := doJSON(t, s, "POST", "/v1/run", runBody(t, KindVNAsm, "vn", storeAsm(9), nil))
	if rrC.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated submission status = %d, want 503: %s", rrC.Code, rrC.Body)
	}
	if rrC.Header().Get("Retry-After") == "" {
		t.Error("503 response is missing Retry-After")
	}

	close(gate)
	for name, ch := range map[string]chan *httptest.ResponseRecorder{"A": aDone, "B": bDone} {
		select {
		case rr := <-ch:
			if rr.Code != http.StatusOK {
				t.Errorf("job %s status = %d, want 200: %s", name, rr.Code, rr.Body)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never finished after the gate opened", name)
		}
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := doJSON(t, s, "POST", "/v1/jobs", runBody(t, KindVNAsm, "vn", storeAsm(7), nil))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202: %s", rr.Code, rr.Body)
	}
	var sub struct{ ID, Key string }
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil || sub.ID == "" || sub.Key == "" {
		t.Fatalf("submit body %q: %v", rr.Body, err)
	}
	if got := rr.Header().Get("Location"); got != "/v1/jobs/"+sub.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", got, sub.ID)
	}

	var job asyncJob
	waitFor(t, "async job completion", func() bool {
		poll := doJSON(t, s, "GET", "/v1/jobs/"+sub.ID, "")
		if poll.Code != http.StatusOK {
			t.Fatalf("poll status = %d: %s", poll.Code, poll.Body)
		}
		if err := json.Unmarshal(poll.Body.Bytes(), &job); err != nil {
			t.Fatalf("poll body %q: %v", poll.Body, err)
		}
		return job.State == "done" || job.State == "error"
	})
	if job.State != "done" || job.Key != sub.Key {
		t.Fatalf("job = %+v, want done with key %s", job, sub.Key)
	}
	res := decodeResult(t, job.Result)
	if res.Result == nil || *res.Result != 7 {
		t.Errorf("async result = %v, want 7", res.Result)
	}

	fetched := doJSON(t, s, "GET", "/v1/results/"+sub.Key, "")
	if fetched.Code != http.StatusOK {
		t.Fatalf("results fetch status = %d: %s", fetched.Code, fetched.Body)
	}
	if got := decodeResult(t, fetched.Body.Bytes()); got.Result == nil || *got.Result != 7 {
		t.Errorf("fetched result = %v, want 7", got.Result)
	}

	if rr := doJSON(t, s, "GET", "/v1/jobs/j-999", ""); rr.Code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", rr.Code)
	}
	if rr := doJSON(t, s, "GET", "/v1/results/deadbeef", ""); rr.Code != http.StatusNotFound {
		t.Errorf("unknown result status = %d, want 404", rr.Code)
	}
}

// TestJobRecordsEvicted: at most CacheEntries finished job records are
// kept, the oldest dropped first, and an evicted id answers 404.
func TestJobRecordsEvicted(t *testing.T) {
	s := newTestServer(t, Options{CacheEntries: 4})
	var ids []string
	for i := 0; i < 10; i++ {
		rr := doJSON(t, s, "POST", "/v1/jobs", runBody(t, KindVNAsm, "vn", storeAsm(i), nil))
		var sub struct{ ID string }
		if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil || rr.Code != http.StatusAccepted {
			t.Fatalf("submit %d = %d %q: %v", i, rr.Code, rr.Body, err)
		}
		ids = append(ids, sub.ID)
		waitFor(t, "job "+sub.ID, func() bool {
			s.jobsMu.Lock()
			defer s.jobsMu.Unlock()
			return len(s.finished) > 0 && s.finished[len(s.finished)-1] == sub.ID
		})
	}
	s.jobsMu.Lock()
	records := len(s.jobs)
	s.jobsMu.Unlock()
	if records > 4 {
		t.Errorf("%d job records kept, want at most 4", records)
	}
	if rr := doJSON(t, s, "GET", "/v1/jobs/"+ids[0], ""); rr.Code != http.StatusNotFound {
		t.Errorf("first job = %d %s, want 404", rr.Code, rr.Body)
	}
	rr := doJSON(t, s, "GET", "/v1/jobs/"+ids[9], "")
	var job asyncJob
	if err := json.Unmarshal(rr.Body.Bytes(), &job); err != nil || job.State != "done" {
		t.Errorf("last job = %d %s, want done", rr.Code, rr.Body)
	}
}

func TestStatsAndHealth(t *testing.T) {
	s := newTestServer(t, Options{Workers: 3})
	if rr := doJSON(t, s, "GET", "/v1/healthz", ""); rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"ok"`) {
		t.Errorf("healthz = %d %q", rr.Code, rr.Body)
	}
	rr := doJSON(t, s, "GET", "/v1/stats", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rr.Code)
	}
	var st ServerStats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats body %q: %v", rr.Body, err)
	}
	if st.Workers != 3 || st.CodeVersion != s.CodeVersion() {
		t.Errorf("stats = %+v, want 3 workers and code version %q", st, s.CodeVersion())
	}
}

// waitFor polls cond until it holds or a deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
