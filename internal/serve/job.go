// Package serve turns the reproduction into a long-running simulation
// service: an HTTP/JSON API that accepts MiniID or vn assembly programs
// (or named experiments, or the cycle-free direct oracle backend for
// result-only traffic), runs them on a chosen machine model through a
// bounded worker pool, coalesces concurrent identical submissions into
// one execution, and caches results content-addressed by a canonical
// hash of (program, machine, config, code version).
//
// The design leans on the repository's central property: every
// simulation is deterministic, bit-for-bit (the conformance suite's oracle
// families enforce it). Determinism is what makes the cache exact — a
// hit is not an approximation of a rerun, it *is* the rerun, byte for
// byte — and what makes coalescing safe: concurrent identical
// submissions can share one execution because there is exactly one
// possible answer.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"

	"repro/internal/experiments"
)

// Program kinds.
const (
	// KindMiniID is MiniID source compiled through internal/id for the
	// dataflow substrates (interp, ttda).
	KindMiniID = "minid"
	// KindVNAsm is vn assembly for the von Neumann baselines (vn, cmmp,
	// cmstar, ultra, hep). Programs are self-contained and store their
	// answer at ResultAddr, the conformance harness's convention.
	KindVNAsm = "vnasm"
)

// MaxProgramBytes bounds submitted program source. The HTTP layer's body
// limit is slightly larger so an oversized program inside a valid JSON
// document fails with a clear 400 rather than a truncation error.
const MaxProgramBytes = 128 << 10

// MaxPEs and MaxContexts bound a job's TTDA processing elements and vn
// hardware contexts. Both machines allocate per PE or per context when
// they are built, so an unbounded count would exhaust the server's
// memory before the first cycle; the bounds sit far above every count
// the experiments, examples and load mixes use (at most 64).
const (
	MaxPEs      = 1024
	MaxContexts = 1024
)

// Config is the machine configuration of a job. Fields that do not
// apply to the chosen machine are zeroed during validation, so two
// specs differing only in an inapplicable knob share one cache entry.
type Config struct {
	// PEs and NetLatency configure the TTDA (defaults 4 and 2).
	PEs        int    `json:"pes,omitempty"`
	NetLatency uint64 `json:"net_latency,omitempty"`
	// Contexts and MemLatency configure the single-core vn machine
	// (defaults 1 and 4).
	Contexts   int    `json:"contexts,omitempty"`
	MemLatency uint64 `json:"mem_latency,omitempty"`
	// Combining enables the Ultracomputer's combining omega network.
	Combining bool `json:"combining,omitempty"`
	// MaxCycles bounds the simulation (default 50M, cap 500M). A run
	// that exhausts it is a client error, not a cached result.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
}

// JobSpec is one submission: exactly one of Program (with Kind and
// Machine) or Experiment.
type JobSpec struct {
	// Program is MiniID or vn assembly source, per Kind.
	Program string `json:"program,omitempty"`
	Kind    string `json:"kind,omitempty"`
	// Machine names the model to run Program on: interp, direct, ttda,
	// vn, cmmp, cmstar, ultra, hep.
	Machine string `json:"machine,omitempty"`
	// Args are the integer entry arguments of a MiniID program's main.
	Args []int64 `json:"args,omitempty"`
	// Experiment names a paper experiment (E1..E14) to run in quick
	// mode instead of a submitted program.
	Experiment string  `json:"experiment,omitempty"`
	Config     *Config `json:"config,omitempty"`
}

// apiError is an error with an HTTP status. Every validation and run
// failure maps to exactly one status so the API contract is testable.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string { return e.Msg }

func errf(status int, format string, args ...interface{}) *apiError {
	return &apiError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// machineKind maps each runnable machine to the program form it
// executes. Absence means an unknown machine (404).
var machineKind = map[string]string{
	"interp": KindMiniID,
	"direct": KindMiniID,
	"ttda":   KindMiniID,
	"vn":     KindVNAsm,
	"cmmp":   KindVNAsm,
	"cmstar": KindVNAsm,
	"ultra":  KindVNAsm,
	"hep":    KindVNAsm,
}

// paperExperiments names the range of experiment jobs, the first and last
// paper experiment of experiments.List; ablations are not served.
func paperExperiments() string {
	var first, last string
	for _, e := range experiments.List {
		if !e.Ablation() {
			if first == "" {
				first = e.ID
			}
			last = e.ID
		}
	}
	return first + ".." + last
}

// normalize validates the spec, applies defaults, and zeroes
// configuration fields the chosen machine ignores. It must be called
// before Key: the canonical hash is taken over the normalized spec, so
// an explicitly-defaulted config and an omitted one address the same
// cache entry, while any meaningful field change produces a new key.
func (s *JobSpec) normalize() error {
	if s.Config == nil {
		s.Config = &Config{}
	}
	c := s.Config
	if c.MaxCycles == 0 {
		c.MaxCycles = 50_000_000
	}
	if c.MaxCycles > 500_000_000 {
		return errf(http.StatusBadRequest, "max_cycles %d exceeds the 500M cap", c.MaxCycles)
	}
	if s.Experiment != "" {
		if s.Program != "" || s.Kind != "" || s.Machine != "" || len(s.Args) != 0 {
			return errf(http.StatusBadRequest, "experiment jobs take no program, kind, machine, or args")
		}
		if e, ok := experiments.Lookup(s.Experiment); !ok || e.Ablation() {
			return errf(http.StatusNotFound, "unknown experiment %q (want %s)", s.Experiment, paperExperiments())
		}
		*c = Config{MaxCycles: c.MaxCycles}
		return nil
	}
	if s.Program == "" {
		return errf(http.StatusBadRequest, "submission needs a program (with kind and machine) or an experiment")
	}
	if len(s.Program) > MaxProgramBytes {
		return errf(http.StatusBadRequest, "program source is %d bytes; the limit is %d", len(s.Program), MaxProgramBytes)
	}
	if s.Kind != KindMiniID && s.Kind != KindVNAsm {
		return errf(http.StatusBadRequest, "unknown program kind %q (want %q or %q)", s.Kind, KindMiniID, KindVNAsm)
	}
	want, known := machineKind[s.Machine]
	if !known {
		return errf(http.StatusNotFound, "unknown machine %q", s.Machine)
	}
	if s.Kind != want {
		return errf(http.StatusBadRequest, "machine %q runs %q programs, not %q", s.Machine, want, s.Kind)
	}
	if s.Kind == KindVNAsm && len(s.Args) != 0 {
		return errf(http.StatusBadRequest, "vn assembly programs are self-contained; args apply only to minid")
	}

	// Per-machine defaults, and zeroing of inapplicable knobs.
	contexts, memLat := c.Contexts, c.MemLatency
	pes, netLat := c.PEs, c.NetLatency
	combining := c.Combining
	*c = Config{MaxCycles: c.MaxCycles}
	switch s.Machine {
	case "interp", "direct":
		// Host-side evaluation: no machine knobs at all.
	case "ttda":
		c.PEs, c.NetLatency = pes, netLat
		if c.PEs <= 0 {
			c.PEs = 4
		}
		if c.PEs > MaxPEs {
			return errf(http.StatusBadRequest, "pes %d exceeds the limit of %d", c.PEs, MaxPEs)
		}
		if c.NetLatency == 0 {
			c.NetLatency = 2
		}
	case "vn":
		c.Contexts, c.MemLatency = contexts, memLat
		if c.Contexts <= 0 {
			c.Contexts = 1
		}
		if c.Contexts > MaxContexts {
			return errf(http.StatusBadRequest, "contexts %d exceeds the limit of %d", c.Contexts, MaxContexts)
		}
		if c.MemLatency == 0 {
			c.MemLatency = 4
		}
	case "ultra":
		c.Combining = combining
	}
	return nil
}

// Key is the canonical content address of a normalized spec: a SHA-256
// over a fixed-order rendering of every meaningful field plus the
// producing code version. Determinism makes the address exact — equal
// keys imply byte-identical results — and the code version keeps
// entries from leaking across simulator revisions, where a one-cycle
// behavioural change would otherwise serve stale numbers forever.
func (s *JobSpec) Key(codeVersion string) string {
	h := sha256.New()
	c := s.Config
	fmt.Fprintf(h, "critique-serve/1\ncode=%s\n", codeVersion)
	fmt.Fprintf(h, "experiment=%s\nkind=%s\nmachine=%s\nargs=%v\n", s.Experiment, s.Kind, s.Machine, s.Args)
	fmt.Fprintf(h, "pes=%d net_latency=%d contexts=%d mem_latency=%d combining=%t max_cycles=%d\n",
		c.PEs, c.NetLatency, c.Contexts, c.MemLatency, c.Combining, c.MaxCycles)
	fmt.Fprintf(h, "program=%d\n%s", len(s.Program), s.Program)
	return hex.EncodeToString(h.Sum(nil))
}
