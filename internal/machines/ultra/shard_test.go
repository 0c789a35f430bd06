package ultra

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/vn"
)

// TestShardedBitIdentical pins the parallel kernel to the sequential one on
// the 16-processor hot-spot burst, with and without combining: snapshots
// (hot-cell value, bank serialization, network statistics, core budgets)
// must match byte for byte at every shard count.
func TestShardedBitIdentical(t *testing.T) {
	for _, combining := range []bool{false, true} {
		run := func(shards int) ultraSnapshot {
			m := build(t, Config{LogProcessors: 4, Combining: combining, Shards: shards}, hotspot)
			for p := 0; p < m.NumProcessors(); p++ {
				m.Core(p).Context(0).SetReg(4, vn.Word(1000+p))
			}
			cycles, err := m.Run(2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if _, par := m.Engine().(*sim.ParallelEngine); par != (shards > 1) {
				t.Fatalf("shards=%d ran on %T", shards, m.Engine())
			}
			return snapshotUltra(m, uint64(cycles))
		}
		want := run(1)
		for _, s := range []int{2, 3, 4, 8} {
			if got := run(s); !reflect.DeepEqual(got, want) {
				t.Errorf("combining=%v shards=%d diverged from sequential:\n got %+v\nwant %+v",
					combining, s, got, want)
			}
		}
	}
}
