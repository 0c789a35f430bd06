package conformance

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/machines/cmmp"
	"repro/internal/machines/connection"
	"repro/internal/machines/hep"
	"repro/internal/machines/ultra"
	"repro/internal/machines/vliw"
	"repro/internal/sim"
)

// --- oracle 7: checkpoint equivalence ---------------------------------
//
// For every machine in the fleet: run the generated program straight
// through, then run it again paused at a seed-derived mid-run cycle,
// serialize, restore into a freshly built machine, and resume. The split
// run must match the uninterrupted one on the FULL snapshot — results,
// cycles, machine statistics, and engine counters — and the checkpoint
// stream itself must be canonical (restore→save byte-identical) with the
// end-of-run states of both runs byte-equal.

// resumable is the machine surface the checkpoint oracle drives: Run
// advances at most limit further cycles and reports completion; Snapshot
// is valid once Run reported done. Every fleet Machine is one.
type resumable interface {
	sim.Stateful
	Run(limit sim.Cycle) (done bool, err error)
	Snapshot() Snapshot
}

// ckptTTDA is the checkpoint oracle's tagged-token machine.
func ckptTTDA(c *compiled, pes int, ownPlan bool) *TTDA {
	return newTTDA(c, core.Config{PEs: pes, NetLatency: 4}, ownPlan)
}

// vliwAdapter drives the resumable VLIW runner.
type vliwAdapter struct {
	m   *vliw.Machine
	res vliw.Result
}

func (a *vliwAdapter) SaveState(e *sim.Enc)       { a.m.SaveState(e) }
func (a *vliwAdapter) LoadState(d *sim.Dec) error { return a.m.LoadState(d) }

func (a *vliwAdapter) Run(limit sim.Cycle) (bool, error) {
	res, done := a.m.Run(limit)
	a.res = res
	return done, nil
}

func (a *vliwAdapter) Snapshot() Snapshot {
	return Snapshot{
		Cycles: uint64(a.res.Cycles),
		Extra:  [5]uint64{a.res.TotalOps, uint64(a.res.StallCycles), a.res.Misses, a.res.Loads},
		Engine: a.res.Engine,
	}
}

// checkCheckpoint runs the split-run check across the fleet, crossing the
// TTDA with machines that build their own plan instead of sharing the
// seed's. The entries named for shards once ran the conservative sharded
// kernel; that kernel is deleted (DESIGN.md §12), and each now builds the
// same shape on the sequential kernel and splits it at a pause cycle of its
// own. They keep their names and their places in the list, because each
// entry draws its pause cycle in order from the seed's stream, only while
// the sweep digest pins E14's table.
func checkCheckpoint(ct *counter, c *compiled) {
	rng := sim.NewRNG(c.w.Seed ^ 0x5EEDC4C7)
	type entry struct {
		name  string
		build func() resumable
	}
	ttda := func(pes int, ownPlan bool) func() resumable {
		return func() resumable { return ckptTTDA(c, pes, ownPlan) }
	}
	entries := []entry{
		{"ttda", ttda(2, false)},
		{"ttda/shards=2", ttda(4, false)},
		{"ttda/shards=4", ttda(4, false)},
		{"ttda/shards=2/window=4", ttda(4, false)},
		{"ttda/shards=2/window=adaptive", ttda(4, false)},
		{"ttda/own-plan", ttda(2, true)},
		{"ttda/own-plan/shards=2", ttda(4, true)},
		{"vn", func() resumable { return NewVN(c.asm, 2, 4) }},
		{"vliw", func() resumable {
			return &vliwAdapter{m: vliw.NewMachine(vliwSchedule(c.w), vliw.Config{
				HitLatency: 1, MissLatency: 8, MissRate: 0.3, Seed: c.w.Seed + 1,
			})}
		}},
	}
	for _, suffix := range []string{"", "/shards=2"} {
		entries = append(entries,
			entry{"cmmp" + suffix, func() resumable {
				return NewCmmp(cmmp.Config{Processors: 2, Banks: 2, SwitchDelay: 2}, c.asm)
			}},
			entry{"cmstar" + suffix, func() resumable { return NewCmstar(cmstarConfig(8), c.asm) }},
			entry{"ultra" + suffix, func() resumable {
				return NewUltra(ultra.Config{LogProcessors: 2, Combining: true}, c.asm)
			}},
			entry{"hep" + suffix, func() resumable {
				return NewHEP(hep.Config{Processors: 2, ContextsPerCore: 1, MemLatency: 4}, c.asm)
			}},
		)
	}

	for _, en := range entries {
		splitCheck(ct, rng, en.name, en.build)
	}
	checkConnectionCheckpoint(ct, c)
}

// splitCheck is one machine's pause/serialize/restore/resume equivalence
// check at a seed-derived random mid-run cycle.
func splitCheck(ct *counter, rng *sim.RNG, name string, build func() resumable) {
	ref := build()
	done, err := ref.Run(runLimit)
	if err != nil || !done {
		ct.fail(OracleCheckpoint, name, fmt.Errorf("reference run: done=%v err=%v", done, err))
		return
	}
	want := ref.Snapshot()
	refBytes := sim.Checkpoint(ref)
	total := want.Cycles
	if total < 2 {
		// Nothing mid-run to pause at; canonical-encoding still holds by
		// construction of the reference bytes.
		ct.check(OracleCheckpoint, name, true, func() string { return "" })
		return
	}
	pause := sim.Cycle(1 + rng.Intn(int(total-1)))

	m := build()
	done, err = m.Run(pause)
	if err != nil {
		ct.fail(OracleCheckpoint, name, fmt.Errorf("pause at cycle %d: %v", pause, err))
		return
	}
	if done {
		ct.checkAt(OracleCheckpoint, name, total, false, func() string {
			return fmt.Sprintf("finished within %d cycles; the uninterrupted run took %d", pause, total)
		})
		return
	}
	data := sim.Checkpoint(m)

	fresh := build()
	if err := sim.Restore(fresh, data); err != nil {
		ct.fail(OracleCheckpoint, name, fmt.Errorf("restore at cycle %d: %v", pause, err))
		return
	}
	if re := sim.Checkpoint(fresh); !bytes.Equal(re, data) {
		ct.checkAt(OracleCheckpoint, name, total, false, func() string {
			return fmt.Sprintf("restore→save at cycle %d is not byte-identical (%d vs %d bytes)", pause, len(re), len(data))
		})
		return
	}
	done, err = fresh.Run(runLimit)
	if err != nil || !done {
		ct.fail(OracleCheckpoint, name, fmt.Errorf("resume from cycle %d: done=%v err=%v", pause, done, err))
		return
	}
	got := fresh.Snapshot()
	ct.checkAt(OracleCheckpoint, name, total, got == want, func() string {
		return fmt.Sprintf("run split at cycle %d diverged from the uninterrupted run:\n  straight %+v\n  split    %+v", pause, want, got)
	})
	ct.checkAt(OracleCheckpoint, name, total, bytes.Equal(sim.Checkpoint(fresh), refBytes), func() string {
		return fmt.Sprintf("end-of-run checkpoint differs after a split at cycle %d", pause)
	})
}

// checkConnectionCheckpoint exercises the SIMD array's instruction-boundary
// checkpoint: save after the compute broadcast, restore into a fresh
// array, and run the routing instruction there. The sequencer is host code,
// so mid-instruction pauses do not exist by construction.
func checkConnectionCheckpoint(ct *counter, c *compiled) {
	const name = "connection"
	wantV, wantSteps, err := runConnection(c)
	if err != nil {
		ct.fail(OracleCheckpoint, name, err)
		return
	}

	w := c.w
	m := connection.New(connection.Config{LogPEs: 4}, 1)
	m.Compute(func(pe int, mem []int64) {
		if pe >= 1 && pe <= int(w.N) {
			mem[0] = w.Body.eval(int64(pe))
		}
	})
	data := sim.Checkpoint(m)

	fresh := connection.New(connection.Config{LogPEs: 4}, 1)
	if err := sim.Restore(fresh, data); err != nil {
		ct.fail(OracleCheckpoint, name, fmt.Errorf("restore at instruction boundary: %v", err))
		return
	}
	if re := sim.Checkpoint(fresh); !bytes.Equal(re, data) {
		ct.check(OracleCheckpoint, name, false, func() string {
			return fmt.Sprintf("restore→save is not byte-identical (%d vs %d bytes)", len(re), len(data))
		})
		return
	}
	msgs := make([]connection.Message, 0, w.N)
	for pe := 1; pe <= int(w.N); pe++ {
		msgs = append(msgs, connection.Message{From: pe, To: 0, Value: fresh.Mem(pe)[0]})
	}
	acc := w.Init
	steps := fresh.Route(msgs, func(to int, v int64) { acc = w.fold(acc, v) })
	ct.checkAt(OracleCheckpoint, name, uint64(wantSteps), acc == wantV && steps == wantSteps, func() string {
		return fmt.Sprintf("restored array diverged: result %d/%d, route steps %d/%d", acc, wantV, steps, wantSteps)
	})
}

// MaterializeCheckpoint is the time-travel debugging entry point a
// Violation's repro line names: re-run seed's TTDA machine, pause it at
// cycle at, write the checkpoint to path, and verify the artifact resumes
// to completion. It returns a human summary of what was written.
func MaterializeCheckpoint(seed uint64, at sim.Cycle, path string) (string, error) {
	w := Generate(seed)
	c, err := compile(w)
	if err != nil {
		return "", err
	}
	a := ckptTTDA(c, 2, false)
	done, err := a.Run(at)
	if err != nil {
		return "", err
	}
	if done {
		return "", fmt.Errorf("seed %d finishes before cycle %d; nothing to pause", seed, at)
	}
	data := sim.Checkpoint(a)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	fresh := ckptTTDA(c, 2, false)
	if err := sim.Restore(fresh, data); err != nil {
		return "", fmt.Errorf("written checkpoint does not restore: %v", err)
	}
	if done, err := fresh.Run(runLimit); err != nil || !done {
		return "", fmt.Errorf("written checkpoint does not resume: done=%v err=%v", done, err)
	}
	snap := fresh.Snapshot()
	return fmt.Sprintf("checkpoint of seed %d at cycle %d written to %s (%d bytes); verified: resumes to result %d in %d cycles",
		seed, at, path, len(data), snap.Result, snap.Cycles), nil
}
