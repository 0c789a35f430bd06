package cmmp

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestCheckpointSplitWideCrossbar pauses the 128-port shared-counter run
// halfway, with packets queued and in flight in the crossbar, checkpoints
// it, restores the bytes into a fresh machine and resumes there. The
// result must equal the straight run's snapshot, and the final checkpoint
// — round-robin pointers and queues included — must equal the straight
// run's byte for byte.
func TestCheckpointSplitWideCrossbar(t *testing.T) {
	straight := build(t, counterProgram, wideConfig, wideIters)
	total, err := straight.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotCMMP(t, straight, wideConfig, uint64(total))

	pause := total / 2
	m := build(t, counterProgram, wideConfig, wideIters)
	if _, err := m.Run(pause); err == nil {
		t.Fatalf("finished within %d of %d cycles", pause, total)
	}
	if m.Crossbar().Pending() == 0 {
		t.Fatalf("crossbar idle at cycle %d: the split would carry no arbitration state", pause)
	}
	fresh := build(t, counterProgram, wideConfig, wideIters)
	if err := sim.Restore(fresh, sim.Checkpoint(m)); err != nil {
		t.Fatalf("restore at cycle %d: %v", pause, err)
	}
	rest, err := fresh.Run(10_000_000)
	if err != nil {
		t.Fatalf("resume from cycle %d: %v", pause, err)
	}
	if got := snapshotCMMP(t, fresh, wideConfig, uint64(pause+rest)); got != want {
		t.Errorf("run split at cycle %d diverged from the straight run:\n  straight %+v\n  split    %+v", pause, want, got)
	}
	if !bytes.Equal(sim.Checkpoint(fresh), sim.Checkpoint(straight)) {
		t.Errorf("end-of-run checkpoint differs after a split at cycle %d", pause)
	}
}
