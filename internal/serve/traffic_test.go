package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/conformance"
)

// TestRepeatTrafficAccounting replays 24 conformance-generator programs
// over real HTTP connections: one cold pass, then 6 repeat passes, each
// sent by 8 concurrent clients. Every request must succeed, every repeat
// must be a cache hit, the server must execute each program once, and
// /v1/stats must count exactly the hits the clients saw. Latency is the
// benchmark's business (bench/'s serve-cold and serve-hot); this pins
// the accounting.
func TestRepeatTrafficAccounting(t *testing.T) {
	const programs, repeats, clients = 24, 6, 8
	for _, tc := range []struct {
		machine  string
		argScale int64
	}{{"ttda", 100}, {"direct", 1}} {
		t.Run(tc.machine, func(t *testing.T) {
			hs := httptest.NewServer(newTestServer(t, Options{}).Handler())
			defer hs.Close()
			bodies := make([]string, programs)
			for i := range bodies {
				w := conformance.Generate(uint64(i))
				bodies[i] = runBody(t, KindMiniID, tc.machine, w.IDSource(), []int64{w.N * tc.argScale})
			}

			served, hits := 0, 0
			// pass sends each body once from the concurrent clients and
			// returns every response's X-Cache, "" for a failed request.
			pass := func(bodies []string) []string {
				sources := make([]string, len(bodies))
				next := make(chan int)
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := range next {
							resp, err := hs.Client().Post(hs.URL+"/v1/run", "application/json", strings.NewReader(bodies[i]))
							if err != nil {
								t.Errorf("request %d: %v", i, err)
								continue
							}
							payload, _ := io.ReadAll(resp.Body)
							resp.Body.Close()
							if resp.StatusCode != http.StatusOK {
								t.Errorf("request %d: status %d %s", i, resp.StatusCode, payload)
								continue
							}
							sources[i] = resp.Header.Get("X-Cache")
						}
					}()
				}
				for i := range bodies {
					next <- i
				}
				close(next)
				wg.Wait()
				for _, src := range sources {
					if src != "" {
						served++
					}
					if src == "hit" {
						hits++
					}
				}
				return sources
			}

			pass(bodies)
			var replay []string
			for r := 0; r < repeats; r++ {
				replay = append(replay, bodies...)
			}
			for i, src := range pass(replay) {
				if src != "hit" {
					t.Errorf("repeat request %d (program %d): X-Cache %q, want hit", i, i%programs, src)
				}
			}
			if want := programs * (1 + repeats); served != want {
				t.Errorf("%d requests served, want %d", served, want)
			}

			resp, err := hs.Client().Get(hs.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var st ServerStats
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if st.Executions != programs {
				t.Errorf("server executed %d times for %d distinct programs", st.Executions, programs)
			}
			if st.Cache.Hits != uint64(hits) {
				t.Errorf("server counted %d cache hits, clients saw %d", st.Cache.Hits, hits)
			}
		})
	}
}
