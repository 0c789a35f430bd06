package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// reply is what a client can see of one /v1/run response, bar timing.
type reply struct {
	status      int
	cache, key  string
	body        string
	contentType string
}

func post(t *testing.T, s *Server, body string) reply {
	t.Helper()
	rr := doJSON(t, s, "POST", "/v1/run", body)
	return reply{rr.Code, rr.Header().Get("X-Cache"), rr.Header().Get("X-Key"), rr.Body.String(), rr.Header().Get("Content-Type")}
}

// TestAliasPathMatchesDecodePath sends each body of a fixed set twice:
// the first send decodes, normalizes and keys the body, the second is
// answered from its alias. Both must give the same status, X-Cache,
// X-Key and body bytes. Each runnable body's result is first cached
// through a different body with the same key (explicit defaults, other
// whitespace), so the decode send is a hit as well.
func TestAliasPathMatchesDecodePath(t *testing.T) {
	s := newTestServer(t, Options{MaxBody: 1 << 10})
	bodies := map[string]string{}
	for _, m := range []string{"interp", "direct", "ttda"} {
		bodies[m] = runBody(t, KindMiniID, m, doubleID, []int64{21})
	}
	for _, m := range []string{"vn", "cmmp", "cmstar", "ultra", "hep"} {
		bodies[m] = runBody(t, KindVNAsm, m, storeAsm(7), nil)
	}
	for m, body := range bodies {
		var spec JobSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		warm := post(t, s, specBody(t, &spec)+"\n")
		if warm.status != http.StatusOK || warm.cache != "miss" {
			t.Fatalf("%s: warming send = %d %s: %s", m, warm.status, warm.cache, warm.body)
		}
	}
	want := map[string]int{}
	for m := range bodies {
		want[m] = http.StatusOK
	}
	for _, e := range []struct {
		name, body string
		status     int
	}{
		{"unknown field", `{"progrm":"x"}`, http.StatusBadRequest},
		{"pes over the limit", `{"kind":"minid","machine":"ttda","program":"def main(n) = n;","config":{"pes":2048}}`, http.StatusBadRequest},
		{"unknown machine", runBody(t, KindMiniID, "vax", doubleID, nil), http.StatusNotFound},
		{"body past MaxBody", runBody(t, KindVNAsm, "vn", strings.Repeat("; padding\n", 200)+storeAsm(1), nil), http.StatusRequestEntityTooLarge},
		{"division by zero", runBody(t, KindMiniID, "direct", "def main(n) = 1 / (n - n);", []int64{3}), http.StatusUnprocessableEntity},
		{"address fault", runBody(t, KindVNAsm, "vn", "li r2, -5\nst r1, r2, 0\nhalt\n", nil), http.StatusUnprocessableEntity},
	} {
		bodies[e.name], want[e.name] = e.body, e.status
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			aliasHits := s.aliases.Stats().Hits
			first, second := post(t, s, body), post(t, s, body)
			if first != second {
				t.Fatalf("decode send and repeat differ:\n first  %+v\n second %+v", first, second)
			}
			if first.status != want[name] {
				t.Fatalf("status %d, want %d: %s", first.status, want[name], first.body)
			}
			if first.status == http.StatusOK && (first.cache != "hit" || s.aliases.Stats().Hits != aliasHits+1) {
				t.Fatalf("X-Cache %q, alias hits %d → %d: the repeat did not take the alias path", first.cache, aliasHits, s.aliases.Stats().Hits)
			}
		})
	}
}

// TestAliasKeepsStatsCounts: a request answered from its alias counts
// one cache hit, and an alias whose result fails its checksum counts the
// corruption and exactly one miss, as the decode path does.
func TestAliasKeepsStatsCounts(t *testing.T) {
	s := newTestServer(t, Options{})
	body := runBody(t, KindVNAsm, "vn", storeAsm(7), nil)
	first := post(t, s, body)
	if first.cache != "miss" {
		t.Fatalf("first send X-Cache %q, want miss", first.cache)
	}
	if again := post(t, s, body); again.cache != "hit" {
		t.Fatalf("repeat X-Cache %q, want hit", again.cache)
	}
	if !s.cache.corrupt(first.key) {
		t.Fatal("no cache entry to corrupt")
	}
	healed := post(t, s, body)
	if healed.cache != "miss" || healed.body != first.body {
		t.Fatalf("send after corruption = %s %q, want a miss with the original bytes", healed.cache, healed.body)
	}
	st := s.Stats().Cache
	if st.Hits != 1 || st.Misses != 2 || st.Corruptions != 1 || s.Stats().Executions != 2 {
		t.Fatalf("stats %+v, executions %d; want 1 hit, 2 misses, 1 corruption, 2 executions", st, s.Stats().Executions)
	}
}

// TestKeyPinned: the canonical key of fixed specs, pinned as computed
// before request-body aliases existed. The alias maps a body to this
// key; it never replaces it.
func TestKeyPinned(t *testing.T) {
	cases := []struct {
		spec *JobSpec
		want string
	}{
		{&JobSpec{Kind: KindMiniID, Machine: "ttda", Program: doubleID, Args: []int64{21}, Config: &Config{PEs: 8, NetLatency: 3}},
			"07e49a102a4ec6713f8b06f02322d043cdd74476e6f8ab25d8237c9fae97572f"},
		{&JobSpec{Kind: KindVNAsm, Machine: "vn", Program: storeAsm(7), Config: &Config{Contexts: 2}},
			"82658fc558d84874bd02edb8d19a2b6d6f5064bd7b1d5a07bc7254624b251e54"},
	}
	for _, tc := range cases {
		if got := normKey(t, tc.spec); got != tc.want {
			t.Errorf("%s key = %s, want %s", tc.spec.Machine, got, tc.want)
		}
	}
}

// assertHealthy checks that /v1/healthz and an ordinary request succeed.
func assertHealthy(t *testing.T, s *Server) {
	t.Helper()
	if rr := doJSON(t, s, "GET", "/v1/healthz", ""); rr.Code != http.StatusOK {
		t.Fatalf("healthz = %d %q", rr.Code, rr.Body)
	}
	if rr := doJSON(t, s, "POST", "/v1/run", runBody(t, KindMiniID, "direct", doubleID, []int64{21})); rr.Code != http.StatusOK {
		t.Fatalf("ordinary request = %d %q", rr.Code, rr.Body)
	}
}

// TestAddressFault422: on every vn-family machine a memory address
// outside [0, 2³²), or past the machine's memory, is a core fault that
// the run returns: 422 with the same fault message everywhere, nothing
// cached, and the service healthy afterwards.
func TestAddressFault422(t *testing.T) {
	s := newTestServer(t, Options{})
	const prog = "li r1, 7\nli r2, %d\nst r1, r2, 0\nhalt\n"
	for _, m := range []string{"vn", "cmmp", "cmstar", "ultra", "hep"} {
		for _, addr := range []int64{1<<32 + 64, -5} {
			rr := doJSON(t, s, "POST", "/v1/run", runBody(t, KindVNAsm, m, fmt.Sprintf(prog, addr), nil))
			want := fmt.Sprintf("%s: memory address %d+0 outside [0, ", m, addr)
			if rr.Code != http.StatusUnprocessableEntity || !strings.Contains(rr.Body.String(), want) {
				t.Errorf("%s st at %d: status %d %s; want 422 naming the address", m, addr, rr.Code, rr.Body)
			}
			assertHealthy(t, s)
		}
	}
	// cmstar's memory is its clusters' words: an address inside 2³² but
	// past them faults too, naming that bound.
	rr := doJSON(t, s, "POST", "/v1/run", runBody(t, KindVNAsm, "cmstar", fmt.Sprintf(prog, 1000), nil))
	if rr.Code != http.StatusUnprocessableEntity || !strings.Contains(rr.Body.String(), "memory address 1000+0 outside [0, 256)") {
		t.Errorf("cmstar st at 1000: status %d %s; want 422 past its 256 words", rr.Code, rr.Body)
	}
	if st := s.Stats(); st.Executions != 1 || st.Cache.Entries != 1 {
		t.Errorf("%d executions and %d cache entries; want only the ordinary request's", st.Executions, st.Cache.Entries)
	}
}

// TestPanicBoundary: a panic inside an execution is answered 500 with
// the key, counted in /v1/stats, and shared with the coalesced follower;
// nothing is cached, so a later request for the key executes again, and
// the service stays healthy.
func TestPanicBoundary(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	body := runBody(t, KindVNAsm, "vn", storeAsm(7), nil)
	spec := &JobSpec{Kind: KindVNAsm, Machine: "vn", Program: storeAsm(7)}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	key := spec.Key(s.CodeVersion())
	// The first execution waits for the second request to join its
	// flight, then panics.
	var once sync.Once
	s.runStarted = func(k string) {
		once.Do(func() {
			for deadline := time.Now().Add(10 * time.Second); s.flight.followersOf(k) < 1 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			panic("planted")
		})
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	replies := make([]string, 2)
	codes := make([]int, 2)
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var b bytes.Buffer
			b.ReadFrom(resp.Body)
			codes[i], replies[i] = resp.StatusCode, b.String()
		}(i)
	}
	wg.Wait()
	for i := range replies {
		if codes[i] != http.StatusInternalServerError || !strings.Contains(replies[i], key) || !strings.Contains(replies[i], "planted") {
			t.Errorf("request %d: %d %s; want 500 naming key %s", i, codes[i], replies[i], key)
		}
	}
	if st := s.Stats(); st.Panics != 1 || st.Executions != 0 || st.Cache.Entries != 0 || st.Coalesced != 0 {
		t.Errorf("stats after the panic = %+v; want 1 panic, no execution, nothing cached", st)
	}
	if got := post(t, s, body); got.status != http.StatusOK || got.cache != "miss" {
		t.Errorf("request after the panic = %d %s, want an executed 200: %s", got.status, got.cache, got.body)
	}
	assertHealthy(t, s)
	var st ServerStats
	if err := json.Unmarshal(doJSON(t, s, "GET", "/v1/stats", "").Body.Bytes(), &st); err != nil || st.Panics != 1 {
		t.Errorf("/v1/stats panics = %d (%v), want 1", st.Panics, err)
	}
}
