package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/core"
)

// The kernel knob comparisons live here, one function each, so that
// deleting a knob from core deletes one function from the benchmark.

// kernelKnobs times the kernel list with each knob against the default
// configuration and checks that every simulated statistic is unchanged.
func kernelKnobs(cases []kernelCase, layers map[string]float64) ([]string, error) {
	var wrong []string
	for _, k := range []struct {
		layer string
		cfg   func(pes int) core.Config
	}{
		{"core.plan_speedup", compiledPlan},
		{"sim.parallel.speedup_2shards", twoShards},
	} {
		speedup, w, err := knobSpeedup(cases, k.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.layer, err)
		}
		layers[k.layer] = speedup
		wrong = append(wrong, w...)
	}
	return wrong, nil
}

// compiledPlan runs the TTDA through the ahead-of-time compiled plan
// (ROADMAP item 2 asks whether the interpreted path can go).
func compiledPlan(pes int) core.Config { return core.Config{PEs: pes, Compiled: true} }

// twoShards runs the TTDA on the parallel kernel with two shards and
// adaptive epoch windows (ROADMAP item 3's keep-or-delete measurement).
func twoShards(pes int) core.Config { return core.Config{PEs: pes, Shards: 2, EpochWindow: -1} }

// knobSpeedup runs one default pass and one knob pass of the list and
// returns default wall time over knob wall time. The knob must leave every
// simulated statistic identical.
func knobSpeedup(cases []kernelCase, knob func(pes int) core.Config) (float64, []string, error) {
	base, baseDigest, err := timedList(cases, func(pes int) core.Config { return core.Config{PEs: pes} })
	if err != nil {
		return 0, nil, err
	}
	alt, altDigest, err := timedList(cases, knob)
	if err != nil {
		return 0, nil, err
	}
	var wrong []string
	if altDigest != baseDigest {
		wrong = append(wrong, fmt.Sprintf("knob %+v changed the simulated statistics (digest %s, default %s)", knob(0), altDigest, baseDigest))
	}
	return base.Seconds() / alt.Seconds(), wrong, nil
}

// timedList runs every case once under cfg and returns the wall time and a
// digest of the simulated statistics.
func timedList(cases []kernelCase, cfg func(pes int) core.Config) (time.Duration, string, error) {
	h := sha256.New()
	start := time.Now()
	for _, c := range cases {
		m := core.NewMachine(cfg(c.pes), c.prog)
		res, err := m.Run(kernelLimit, c.args...)
		if err != nil {
			return 0, "", fmt.Errorf("%s: %w", c.label, err)
		}
		writeSummary(h, c.label, m.Summarize())
		fmt.Fprintf(h, " results=%v\n", res)
	}
	return time.Since(start), hex.EncodeToString(h.Sum(nil)), nil
}
