package core

import (
	"bytes"
	"testing"

	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/workload"
)

// midRunCheckpoint returns a builder for a 4-PE machine running matmul(3)
// and that machine's checkpoint, paused at cycle 200 with traffic on
// every queue.
func midRunCheckpoint(tb testing.TB) (build func() *Machine, valid []byte) {
	tb.Helper()
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	args, err := id.EntryArgs(prog, []token.Value{token.Int(3)})
	if err != nil {
		tb.Fatal(err)
	}
	build = func() *Machine { return NewMachine(Config{PEs: 4}, prog) }
	m := build()
	if _, err := m.Run(200, args...); err == nil {
		tb.Fatal("seed run finished before the pause point")
	}
	return build, sim.Checkpoint(m)
}

// checkRestore is the decoder's contract on one input: it is rejected
// with an error, or it restores to a machine that re-saves to the same
// bytes and then runs without panicking.
func checkRestore(t *testing.T, build func() *Machine, data []byte) {
	fresh := build()
	if err := sim.Restore(fresh, data); err != nil {
		return // rejected cleanly; panics are the failure mode
	}
	if re := sim.Checkpoint(fresh); !bytes.Equal(re, data) {
		t.Fatalf("accepted a non-canonical stream: re-save differs (%d vs %d bytes)", len(re), len(data))
	}
	// Drive the restored machine a little; a hung resume is legal for a
	// mutated-but-consistent state, but it must not panic.
	_, _ = fresh.Run(10_000)
}

// FuzzCheckpointDecode throws arbitrary bytes at the whole-machine restore
// path. The invariants: decoding NEVER panics, and any stream Restore
// accepts is canonical — re-saving the restored machine reproduces the
// input byte-for-byte, so corruption is either rejected with an error or
// provably absorbed into a self-consistent state, never silently
// misdecoded. The in-code seeds below cover the canonical corruption
// classes (truncation, flipped byte, bumped format version, empty input);
// the committed corpus under testdata/fuzz mirrors them — regenerate it
// with `go run gen_corpus.go` in this directory.
func FuzzCheckpointDecode(f *testing.F) {
	build, valid := midRunCheckpoint(f)

	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	bumped := append([]byte(nil), valid...)
	bumped[11] ^= 0xFF // the U32 format version right after the magic string
	f.Add(bumped)

	f.Fuzz(func(t *testing.T, data []byte) { checkRestore(t, build, data) })
}

// TestCheckpointMutationsNeverPanic holds the fuzz target's contract over
// a fixed set of seeded byte mutations of the mid-run checkpoint. Some of
// them name a packet endpoint, a token's PE or operand port, a FETCH
// continuation's port, or an activity outside the machine; each must be
// rejected, because a restored one panics as soon as the run indexes a
// PE, an operand slot or the plan with it.
func TestCheckpointMutationsNeverPanic(t *testing.T) {
	build, valid := midRunCheckpoint(t)
	rng := sim.NewRNG(7)
	for i := 0; i < 2000; i++ {
		data := append([]byte(nil), valid...)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			p := rng.Intn(len(data))
			switch rng.Intn(3) {
			case 0:
				data[p] ^= 1 << uint(rng.Intn(8))
			case 1:
				data[p] = byte(rng.Intn(256))
			default:
				data[p] = 0xFF
			}
		}
		checkRestore(t, build, data)
	}
}
