package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/conformance"
	"repro/internal/sweep"
)

// LoadOptions shapes a load run against the serve API.
type LoadOptions struct {
	// URL targets a running server; empty self-hosts one on loopback
	// with Self's options for the duration of the run.
	URL  string
	Self Options
	// Programs is the distinct-program count; each is a seeded
	// conformance-generator workload, so the traffic is the same
	// program population the differential test harness runs.
	Programs int
	// Repeats is how many times the program set is replayed after the
	// cold pass — the repeat traffic the cache amortizes.
	Repeats int
	// Concurrency is the client-side worker count.
	Concurrency int
	// Machine receives the traffic (default ttda).
	Machine string
	// Config, when non-nil, is attached to every generated spec — e.g. a
	// larger PE array, which makes each cold simulation proportionally
	// heavier while leaving the hit path untouched.
	Config *Config
	// ArgScale multiplies each MiniID program's entry argument (default
	// 1). Generated workloads iterate 2..10 times — quick enough for the
	// differential harness, but a serving benchmark wants cold requests
	// that cost real simulation time; scaling the argument lengthens the
	// run without changing the program text. Ignored for vn-assembly
	// machines, whose iteration count is baked into the source.
	ArgScale int64
	// Timeout bounds each request.
	Timeout time.Duration
}

// LoadReport is the measured outcome. Latency is reported separately
// for cold requests (the simulation actually ran) and hits (served from
// the content-addressed cache); the cold-p99 / hit-p99 ratio is the
// headline amortization number.
type LoadReport struct {
	Machine     string  `json:"machine"`
	Config      *Config `json:"config,omitempty"`
	ArgScale    int64   `json:"arg_scale,omitempty"`
	Programs    int     `json:"programs"`
	Repeats     int     `json:"repeats"`
	Concurrency int     `json:"concurrency"`

	Requests  int `json:"requests"`
	Errors    int `json:"errors"`
	Cold      int `json:"cold_requests"`
	Hits      int `json:"hit_requests"`
	Coalesced int `json:"coalesced_requests"`

	// HitRate is hits over all requests; RepeatHitRate restricts the
	// denominator to the repeat passes, where every request has been
	// seen before and anything under 1.0 means the cache leaked.
	HitRate       float64 `json:"hit_rate"`
	RepeatHitRate float64 `json:"repeat_hit_rate"`

	ColdP50Ms float64 `json:"cold_p50_ms"`
	ColdP99Ms float64 `json:"cold_p99_ms"`
	HitP50Ms  float64 `json:"hit_p50_ms"`
	HitP99Ms  float64 `json:"hit_p99_ms"`
	// ColdOverHitP99 is ColdP99Ms / HitP99Ms.
	ColdOverHitP99 float64 `json:"cold_p99_over_hit_p99"`

	WallMs        float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Server is the target's /v1/stats snapshot after the run.
	Server ServerStats `json:"server"`
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Programs < 1 {
		o.Programs = 32
	}
	if o.Repeats < 1 {
		o.Repeats = 9
	}
	if o.Concurrency < 1 {
		o.Concurrency = 8
	}
	if o.Machine == "" {
		o.Machine = "ttda"
	}
	if o.ArgScale < 1 {
		o.ArgScale = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// loadSpec renders workload seed i as a request body for machine.
func loadSpec(machine string, cfg *Config, argScale int64, seed uint64) ([]byte, error) {
	w := conformance.Generate(seed)
	spec := &JobSpec{Machine: machine}
	if cfg != nil {
		c := *cfg
		spec.Config = &c
	}
	if machineKind[machine] == KindMiniID {
		spec.Kind, spec.Program, spec.Args = KindMiniID, w.IDSource(), []int64{w.N * argScale}
	} else {
		spec.Kind, spec.Program = KindVNAsm, w.ASMSource()
	}
	return json.Marshal(spec)
}

// sample is one request's observation.
type sample struct {
	ms     float64
	source string // hit | miss | coalesced
	err    error
}

// RunLoad replays Programs distinct conformance-generator programs
// against the API — one cold pass, then Repeats replay passes — with
// Concurrency client workers (the client fan-out itself rides on
// sweep.Run), and reports latency percentiles, throughput, and cache
// effectiveness.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	opts = opts.withDefaults()
	url := opts.URL
	if url == "" {
		srv := New(opts.Self)
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		url = "http://" + ln.Addr().String()
	}

	bodies := make([][]byte, opts.Programs)
	for i := range bodies {
		b, err := loadSpec(opts.Machine, opts.Config, opts.ArgScale, uint64(i))
		if err != nil {
			return nil, fmt.Errorf("render program %d: %v", i, err)
		}
		bodies[i] = b
	}

	client := &http.Client{Timeout: opts.Timeout}
	fire := func(body []byte) sample {
		start := time.Now()
		resp, err := client.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return sample{err: err}
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		ms := float64(time.Since(start).Microseconds()) / 1e3
		if resp.StatusCode != http.StatusOK {
			return sample{ms: ms, err: fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))}
		}
		return sample{ms: ms, source: resp.Header.Get("X-Cache")}
	}

	rep := &LoadReport{
		Machine:     opts.Machine,
		Config:      opts.Config,
		ArgScale:    opts.ArgScale,
		Programs:    opts.Programs,
		Repeats:     opts.Repeats,
		Concurrency: opts.Concurrency,
	}
	start := time.Now()

	// Cold pass: every program once. Concurrent distinct submissions
	// never coalesce, so this measures real simulation latency.
	coldSamples, err := sweep.Run(bodies, func(_ sweep.Env, body []byte) (sample, error) {
		return fire(body), nil
	}, sweep.Options{Workers: opts.Concurrency})
	if err != nil {
		return nil, err
	}

	// Repeat passes: the same population replayed Repeats times. The
	// request order interleaves programs so concurrent workers pull
	// different keys (pure cache traffic, not a coalescing storm).
	repeats := make([][]byte, 0, opts.Repeats*opts.Programs)
	for r := 0; r < opts.Repeats; r++ {
		repeats = append(repeats, bodies...)
	}
	repeatSamples, err := sweep.Run(repeats, func(_ sweep.Env, body []byte) (sample, error) {
		return fire(body), nil
	}, sweep.Options{Workers: opts.Concurrency})
	if err != nil {
		return nil, err
	}
	rep.WallMs = float64(time.Since(start).Microseconds()) / 1e3

	var coldMs, hitMs []float64
	var repeatHits, repeatTotal int
	tally := func(samples []sample, repeat bool) {
		for _, sm := range samples {
			rep.Requests++
			if sm.err != nil {
				rep.Errors++
				continue
			}
			switch sm.source {
			case "hit":
				rep.Hits++
				hitMs = append(hitMs, sm.ms)
			case "coalesced":
				rep.Coalesced++
			default:
				rep.Cold++
				coldMs = append(coldMs, sm.ms)
			}
			if repeat {
				repeatTotal++
				if sm.source == "hit" {
					repeatHits++
				}
			}
		}
	}
	tally(coldSamples, false)
	tally(repeatSamples, true)

	if rep.Requests > 0 {
		rep.HitRate = float64(rep.Hits) / float64(rep.Requests)
	}
	if repeatTotal > 0 {
		rep.RepeatHitRate = float64(repeatHits) / float64(repeatTotal)
	}
	rep.ColdP50Ms = percentile(coldMs, 0.50)
	rep.ColdP99Ms = percentile(coldMs, 0.99)
	rep.HitP50Ms = percentile(hitMs, 0.50)
	rep.HitP99Ms = percentile(hitMs, 0.99)
	if rep.HitP99Ms > 0 {
		rep.ColdOverHitP99 = rep.ColdP99Ms / rep.HitP99Ms
	}
	if rep.WallMs > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / (rep.WallMs / 1e3)
	}

	if resp, err := client.Get(url + "/v1/stats"); err == nil {
		json.NewDecoder(resp.Body).Decode(&rep.Server)
		resp.Body.Close()
	}
	return rep, nil
}

// percentile returns the p-quantile (0..1) by nearest rank over a copy.
func percentile(ms []float64, p float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	idx := int(p*float64(len(s)-1) + 0.5)
	return s[idx]
}
