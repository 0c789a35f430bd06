package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// documentedStatus holds every status the /v1/run API documents.
var documentedStatus = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusNotFound:              true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusInternalServerError:   true, // only from the counted panic path
	http.StatusServiceUnavailable:    true,
	http.StatusGatewayTimeout:        true,
}

// FuzzServeSpec sends arbitrary /v1/run bodies through Server.Handler()
// and checks the service contract on each:
//
//   - the process survives (a crash fails the fuzz run);
//   - every status is documented, and a 500 only comes with a counted
//     panic;
//   - the body sent twice gets the same status, X-Key and body bytes, and
//     the repeat of a 200 is answered from its alias as a hit;
//   - normalization is idempotent, and the key is stable under field
//     reorder and explicit defaults, and is the key the handler served.
func FuzzServeSpec(f *testing.F) {
	seeds := []string{
		// ROADMAP item 1's four requests, and the two per-field bounds.
		`{"kind":"minid","machine":"direct","program":"def main(n) = { a = array(n); a[0] };","args":[1000000000000]}`,
		`{"kind":"minid","machine":"ttda","program":"def main(n) = { a = array(n); len(a) };","args":[4294967301]}`,
		`{"kind":"vnasm","machine":"vn","program":"li r1, 7\nli r2, 4294967360\nst r1, r2, 0\nhalt\n"}`,
		`{"kind":"vnasm","machine":"cmmp","program":"li r1, 7\nli r2, -5\nst r1, r2, 0\nhalt\n"}`,
		`{"kind":"minid","machine":"ttda","program":"def main(n) = n + 1;","args":[1],"config":{"pes":35184372088832}}`,
		`{"kind":"vnasm","machine":"vn","program":"halt","config":{"contexts":35184372088832}}`,
	}
	seeds = append(seeds,
		`{"kind":"minid","machine":"interp","program":"def main(n) = n * 2;","args":[21]}`,
		`{"kind":"minid","machine":"direct","program":"def main(n) = { a = array(n); len(a) };","args":[5]}`,
		`{"kind":"minid","machine":"ttda","program":"def main(n) = n * 2;","args":[21],"config":{"pes":8,"net_latency":3}}`,
		`{"kind":"vnasm","machine":"vn","program":"li r1, 7\nli r2, 64\nst r1, r2, 0\nhalt\n","config":{"contexts":2,"mem_latency":8}}`,
		`{"kind":"vnasm","machine":"cmmp","program":"li r1, 7\nli r2, 64\nst r1, r2, 0\nhalt\n"}`,
		`{"kind":"vnasm","machine":"cmstar","program":"li r1, 7\nli r2, 64\nst r1, r2, 0\nhalt\n"}`,
		`{"kind":"vnasm","machine":"ultra","program":"li r1, 7\nli r2, 64\nfaa r3, r2, r1\nhalt\n","config":{"combining":true}}`,
		`{"kind":"vnasm","machine":"hep","program":"li r1, 7\nli r2, 64\nst r1, r2, 0\nhalt\n","config":{"max_cycles":1000}}`,
	)
	for _, s := range seeds {
		f.Add(s)
	}
	s := New(Options{Timeout: time.Second})
	f.Cleanup(s.Close)
	h := s.Handler()
	send := func(body string) reply {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/run", strings.NewReader(body)))
		return reply{rr.Code, rr.Header().Get("X-Cache"), rr.Header().Get("X-Key"), rr.Body.String(), rr.Header().Get("Content-Type")}
	}
	f.Fuzz(func(t *testing.T, body string) {
		panics := s.Stats().Panics
		first := send(body)
		aliasHits := s.aliases.Stats().Hits
		second := send(body)
		for _, r := range []reply{first, second} {
			if !documentedStatus[r.status] {
				t.Fatalf("undocumented status %d: %s", r.status, r.body)
			}
		}
		if (first.status == http.StatusInternalServerError || second.status == http.StatusInternalServerError) && s.Stats().Panics == panics {
			t.Fatalf("500 without a counted panic: %s%s", first.body, second.body)
		}
		// 503 and 504 depend on load and time, not on the body.
		timed := func(r reply) bool {
			return r.status == http.StatusServiceUnavailable || r.status == http.StatusGatewayTimeout
		}
		if !timed(first) && !timed(second) {
			if first.status != second.status || first.key != second.key || first.body != second.body {
				t.Fatalf("the same body answered twice differently:\n first  %+v\n second %+v", first, second)
			}
			if first.status == http.StatusOK && (second.cache != "hit" || s.aliases.Stats().Hits != aliasHits+1) {
				t.Fatalf("repeat of a 200 was not an alias hit: X-Cache %q", second.cache)
			}
		}

		spec, err := decodeSpec([]byte(body))
		if err != nil {
			return
		}
		key := spec.Key(s.CodeVersion())
		if first.status == http.StatusOK && first.key != key {
			t.Fatalf("handler served key %s, the body normalizes to %s", first.key, key)
		}
		again := *spec
		cfg := *spec.Config
		again.Config, again.Args = &cfg, slices.Clone(spec.Args)
		if err := again.normalize(); err != nil || !reflect.DeepEqual(spec, &again) {
			t.Fatalf("normalize is not idempotent: %+v → %+v (%v)", spec, &again, err)
		}
		// Re-render the normalized spec, defaults explicit, with its
		// fields in sorted order (a map's), and key it again.
		explicit, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		dec := json.NewDecoder(bytes.NewReader(explicit))
		dec.UseNumber() // int64 args past 2⁵³ must survive the round trip
		if err := dec.Decode(&fields); err != nil {
			t.Fatal(err)
		}
		reordered, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		respec, err := decodeSpec(reordered)
		if err != nil {
			t.Fatalf("re-rendered spec %s rejected: %v", reordered, err)
		}
		if k := respec.Key(s.CodeVersion()); k != key {
			t.Fatalf("key moved under reorder and explicit defaults: %s → %s (%s)", key, k, reordered)
		}
	})
}
