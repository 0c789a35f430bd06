package serve

import (
	"net/http"
	"strings"
	"testing"
)

// TestRunDirect pins the API contract for machine "direct": result-only
// success shape (results and a firing count, but no cycles and no engine
// counters — the backend has no cycle model to report), cache stamping,
// and an exact byte replay on the repeat request.
func TestRunDirect(t *testing.T) {
	s := newTestServer(t, Options{})
	body := runBody(t, KindMiniID, "direct", doubleID, []int64{21})
	rr := doJSON(t, s, "POST", "/v1/run", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	res := decodeResult(t, rr.Body.Bytes())
	if len(res.Results) != 1 || res.Results[0] != "42" {
		t.Errorf("results = %v, want [42]", res.Results)
	}
	if res.Stats["fired"] == 0 {
		t.Errorf("stats = %v, want a nonzero firing count", res.Stats)
	}
	if res.Cycles != 0 || res.Engine != nil {
		t.Errorf("direct result reports cycle-model observables it cannot have: cycles=%d engine=%v", res.Cycles, res.Engine)
	}
	if res.Key == "" || res.CodeVersion != s.CodeVersion() {
		t.Errorf("key %q / code_version %q not stamped", res.Key, res.CodeVersion)
	}

	again := doJSON(t, s, "POST", "/v1/run", body)
	if got := again.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat: X-Cache = %q, want hit", got)
	}
	if again.Body.String() != rr.Body.String() {
		t.Errorf("repeat: hit body differs from cold body")
	}
}

// TestDirectKeyDiscriminatesFromInterp: the same program and args on the
// direct backend and the reference interpreter must address different
// cache entries — the two backends agree on every result bit, but their
// stats differ and a cached entry must replay the backend that ran.
func TestDirectKeyDiscriminatesFromInterp(t *testing.T) {
	direct := normKey(t, &JobSpec{Kind: KindMiniID, Machine: "direct", Program: doubleID, Args: []int64{21}})
	interp := normKey(t, &JobSpec{Kind: KindMiniID, Machine: "interp", Program: doubleID, Args: []int64{21}})
	if direct == interp {
		t.Fatalf("direct and interp share cache key %s", direct)
	}
}

// TestDirectNormalizationZeroesCycleKnobs: machine "direct" has no cycle
// model, so every cycle-model knob is inapplicable and must be zeroed
// away exactly like the interpreter's — two specs differing only in
// knobs the backend ignores share one cache entry. The same knobs on the
// TTDA remain meaningful (pes moves the ttda key), pinning that the
// zeroing is per-machine, not global.
func TestDirectNormalizationZeroesCycleKnobs(t *testing.T) {
	bare := normKey(t, &JobSpec{Kind: KindMiniID, Machine: "direct", Program: doubleID, Args: []int64{21}})
	knobbed := normKey(t, &JobSpec{
		Kind: KindMiniID, Machine: "direct", Program: doubleID, Args: []int64{21},
		Config: &Config{PEs: 9, NetLatency: 5, Contexts: 3, MemLatency: 7, Combining: true},
	})
	if bare != knobbed {
		t.Fatalf("inapplicable cycle-model knobs fragmented the cache: %s vs %s", bare, knobbed)
	}

	// MaxCycles stays meaningful: it bounds firings on this backend.
	bounded := normKey(t, &JobSpec{
		Kind: KindMiniID, Machine: "direct", Program: doubleID, Args: []int64{21},
		Config: &Config{MaxCycles: 1_000_000},
	})
	if bounded == bare {
		t.Fatal("max_cycles does not participate in the direct cache key")
	}

	ttda := func(c *Config) string {
		return normKey(t, &JobSpec{Kind: KindMiniID, Machine: "ttda", Program: doubleID, Args: []int64{21}, Config: c})
	}
	if ttda(nil) == ttda(&Config{PEs: 9}) {
		t.Fatal("pes does not participate in the ttda cache key")
	}
	if pes := normKey(t, &JobSpec{
		Kind: KindMiniID, Machine: "direct", Program: doubleID, Args: []int64{21},
		Config: &Config{PEs: 9},
	}); pes != bare {
		t.Fatalf("pes fragmented the direct cache: %s vs %s", pes, bare)
	}
}

// TestDirectRunFailures422: dataflow faults and firing-budget exhaustion
// on the direct backend are unprocessable submissions, same as every
// other machine.
func TestDirectRunFailures422(t *testing.T) {
	s := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
	}{
		{"division by zero", runBody(t, KindMiniID, "direct", "def main(n) = 1 / (n - n);", []int64{3})},
		{"firing budget exhausted", specBody(t, &JobSpec{
			Kind: KindMiniID, Machine: "direct",
			Program: "def f(x) = f(x + 1);\ndef main(n) = f(n);", Args: []int64{1},
			Config: &Config{MaxCycles: 100_000},
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doJSON(t, s, "POST", "/v1/run", tc.body)
			if rr.Code != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d, want 422: %s", rr.Code, rr.Body)
			}
		})
	}
}

// TestOversizedAllocation422: an allocation size outside [0, 2³²) faults
// on the backend as a bad size, and one inside it that the job's cells
// cannot hold exhausts the I-structure space, so the service answers 422
// instead of exhausting its memory (direct, interp) or caching an array
// narrowed to 32 bits (ttda), and stays healthy afterwards.
func TestOversizedAllocation422(t *testing.T) {
	s := newTestServer(t, Options{})
	cases := []struct {
		name, body, msg string
	}{
		{"direct array(1e12)", `{"kind":"minid","machine":"direct","program":"def main(n) = { a = array(n); a[0] };","args":[1000000000000]}`, "bad size"},
		{"ttda array(2^32+5)", `{"kind":"minid","machine":"ttda","program":"def main(n) = { a = array(n); len(a) };","args":[4294967301]}`, "bad size"},
		{"direct array(2^32-1)", `{"kind":"minid","machine":"direct","program":"def main(n) = { a = array(n); a[0] };","args":[4294967295]}`, "space exhausted"},
		{"interp array(2^32-1)", `{"kind":"minid","machine":"interp","program":"def main(n) = { a = array(n); a[0] };","args":[4294967295]}`, "space exhausted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doJSON(t, s, "POST", "/v1/run", tc.body)
			if rr.Code != http.StatusUnprocessableEntity || !strings.Contains(rr.Body.String(), tc.msg) {
				t.Fatalf("status = %d, want 422 with a %s fault: %s", rr.Code, tc.msg, rr.Body)
			}
			assertHealthy(t, s)
		})
	}
}
