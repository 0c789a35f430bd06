package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/workload"
)

// ckptShape is one machine shape the round-trip tests cross.
type ckptShape struct {
	cfg Config
	// compiled builds every machine of the subtest with NewMachineWithPlan
	// on one plan compiled up front, restored machines included, instead
	// of letting NewMachine compile a private plan per machine.
	compiled bool
}

// ckptConfigs are the machine shapes the round-trip tests cross: the
// sequential and the sharded kernel, each built from a private plan and
// from a shared pre-compiled one.
func ckptConfigs() map[string]ckptShape {
	return map[string]ckptShape{
		"pe4":              {cfg: Config{PEs: 4}},
		"pe4-compiled":     {cfg: Config{PEs: 4}, compiled: true},
		"pe4-sh2":          {cfg: Config{PEs: 4, Shards: 2}},
		"pe4-sh2-compiled": {cfg: Config{PEs: 4, Shards: 2}, compiled: true},
	}
}

// builder returns the shape's machine constructor for prog.
func (c ckptShape) builder(t *testing.T, prog *graph.Program) func() *Machine {
	t.Helper()
	if !c.compiled {
		return func() *Machine { return NewMachine(c.cfg, prog) }
	}
	plan, err := graph.Compile(prog)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return func() *Machine { return NewMachineWithPlan(c.cfg, plan) }
}

// runToEnd runs a fresh machine to completion and returns it with its
// results. The matmul workload exercises calls, I-structures, and loops,
// so every serialized subsystem is mid-flight at the pause points.
func runToEnd(t *testing.T, build func() *Machine, srcArgs []token.Value) (*Machine, []token.Value) {
	t.Helper()
	m := build()
	got, err := m.Run(5_000_000, srcArgs...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, got
}

// TestCheckpointResumeBitIdentical pauses a run at several mid-run cycles,
// serializes, restores into a fresh machine, finishes, and requires the
// split run to match the uninterrupted one exactly — results, cycle count,
// and the full end-of-run checkpoint byte stream.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	args, err := id.EntryArgs(prog, []token.Value{token.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	for name, shape := range ckptConfigs() {
		shape := shape
		t.Run(name, func(t *testing.T) {
			build := shape.builder(t, prog)
			ref, wantRes := runToEnd(t, build, args)
			total := sim.Cycle(ref.Stats().Cycles)
			if total < 10 {
				t.Fatalf("run too short to split: %d cycles", total)
			}
			refBytes := sim.Checkpoint(ref)

			for _, frac := range []sim.Cycle{1, total / 3, total / 2, total - 1} {
				paused := build()
				_, err := paused.Run(frac, args...)
				if err == nil {
					t.Fatalf("pause at %d: run finished early", frac)
				}
				if !strings.Contains(err.Error(), "did not finish") {
					t.Fatalf("pause at %d: %v", frac, err)
				}
				data := sim.Checkpoint(paused)

				// Canonical encoding: restore → re-save is byte-identical.
				again := build()
				if err := sim.Restore(again, data); err != nil {
					t.Fatalf("restore at %d: %v", frac, err)
				}
				if re := sim.Checkpoint(again); !bytes.Equal(re, data) {
					t.Fatalf("pause at %d: restore→save changed the stream (%d vs %d bytes)", frac, len(re), len(data))
				}

				// The restored machine finishes identically.
				gotRes, err := again.Run(5_000_000)
				if err != nil {
					t.Fatalf("resume at %d: %v", frac, err)
				}
				if len(gotRes) != len(wantRes) {
					t.Fatalf("resume at %d: %d results, want %d", frac, len(gotRes), len(wantRes))
				}
				for i := range gotRes {
					if !gotRes[i].Equal(wantRes[i]) {
						t.Fatalf("resume at %d: result %d = %s, want %s", frac, i, gotRes[i], wantRes[i])
					}
				}
				if got := again.Stats().Cycles; got != ref.Stats().Cycles {
					t.Fatalf("resume at %d: %d cycles, want %d", frac, got, ref.Stats().Cycles)
				}
				if end := sim.Checkpoint(again); !bytes.Equal(end, refBytes) {
					t.Fatalf("resume at %d: end-of-run checkpoint differs from uninterrupted run", frac)
				}
			}
		})
	}
}

// TestCheckpointPauseResumeInPlace checks the no-serialize path: a machine
// paused by its cycle limit continues bit-identically when Run is called
// again on the same instance.
func TestCheckpointPauseResumeInPlace(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	args, err := id.EntryArgs(prog, []token.Value{token.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	for name, shape := range ckptConfigs() {
		shape := shape
		t.Run(name, func(t *testing.T) {
			build := shape.builder(t, prog)
			ref, wantRes := runToEnd(t, build, args)
			refBytes := sim.Checkpoint(ref)
			total := sim.Cycle(ref.Stats().Cycles)

			m := build()
			if _, err := m.Run(total/2, args...); err == nil {
				t.Fatal("run finished before the split point")
			}
			gotRes, err := m.Run(5_000_000)
			if err != nil {
				t.Fatalf("continue: %v", err)
			}
			for i := range gotRes {
				if !gotRes[i].Equal(wantRes[i]) {
					t.Fatalf("result %d = %s, want %s", i, gotRes[i], wantRes[i])
				}
			}
			if got := m.Stats().Cycles; got != ref.Stats().Cycles {
				t.Fatalf("split run took %d cycles, want %d", got, ref.Stats().Cycles)
			}
			if end := sim.Checkpoint(m); !bytes.Equal(end, refBytes) {
				t.Fatal("split run end checkpoint differs from uninterrupted run")
			}
		})
	}
}

// TestCheckpointRejectsWrongShape ensures a checkpoint refuses to load
// into a machine of a different configuration instead of misdecoding.
func TestCheckpointRejectsWrongShape(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	args, err := id.EntryArgs(prog, []token.Value{token.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 4}, prog)
	if _, err := m.Run(50, args...); err == nil {
		t.Fatal("run finished early")
	}
	data := sim.Checkpoint(m)

	for name, cfg := range map[string]Config{
		"more-pes": {PEs: 8},
		"sharded":  {PEs: 4, Shards: 2},
	} {
		if err := sim.Restore(NewMachine(cfg, prog), data); err == nil {
			t.Errorf("%s: restore accepted a mismatched checkpoint", name)
		}
	}
}

// TestCheckpointRejectsOldFormat pins the ttda section's version. Version 1
// streams carried a compiled-mode byte after the section tag; a machine
// that always runs its plan has no such mode, so an old stream is refused
// at the tag instead of being misread one byte out of step.
func TestCheckpointRejectsOldFormat(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	args, err := id.EntryArgs(prog, []token.Value{token.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 4}, prog)
	if _, err := m.Run(50, args...); err == nil {
		t.Fatal("run finished early")
	}
	data := sim.Checkpoint(m)
	if err := sim.Restore(NewMachine(Config{PEs: 4}, prog), data); err != nil {
		t.Fatalf("current stream refused: %v", err)
	}

	// Rewrite the stream as version 1 wrote it: section version 1, then
	// compiled=false.
	at := bytes.Index(data, []byte("ttda")) + len("ttda")
	old := append([]byte(nil), data[:at]...)
	old = binary.LittleEndian.AppendUint32(old, 1)
	old = append(old, 0)
	old = append(old, data[at+4:]...)
	err = sim.Restore(NewMachine(Config{PEs: 4}, prog), old)
	if err == nil || !strings.Contains(err.Error(), `section "ttda" version 1, want 2`) {
		t.Fatalf("version 1 stream: got %v, want a section version error", err)
	}
}
