package cmmp

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestShardedBitIdentical pins the parallel kernel to the sequential one:
// the lock-contended shared-counter workload must produce byte-for-byte
// identical snapshots (results, cycle counts, bank and crossbar statistics)
// at every shard count.
func TestShardedBitIdentical(t *testing.T) {
	run := func(shards int) cmmpSnapshot {
		cfg := Config{Processors: 8, Banks: 4, Shards: shards}
		m := build(t, counterProgram, cfg, 25)
		cycles, err := m.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if _, par := m.Engine().(*sim.ParallelEngine); par != (shards > 1) {
			t.Fatalf("shards=%d ran on %T", shards, m.Engine())
		}
		return snapshotCMMP(t, m, cfg, uint64(cycles))
	}
	want := run(1)
	for _, s := range []int{2, 3, 4, 8} {
		if got := run(s); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d diverged from sequential:\n got %+v\nwant %+v", s, got, want)
		}
	}
}
