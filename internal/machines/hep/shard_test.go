package hep

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/vn"
)

// TestShardedBitIdentical pins the parallel kernel to the sequential one on
// a multi-processor producer/consumer workload: even cores produce into a
// full/empty cell, odd cores consume from it, with the busy-wait retry
// traffic counted. Snapshots must match byte for byte at every shard count.
func TestShardedBitIdentical(t *testing.T) {
	const n = 40
	run := func(shards int) hepSnapshot {
		prog, err := vn.Assemble(pipeline)
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{Processors: 4, ContextsPerCore: 1, Shards: shards}, prog)
		for pair := 0; pair < 2; pair++ {
			cell := vn.Word(100 + 10*pair)
			producer := m.cores[2*pair].Context(0)
			producer.SetReg(1, cell)
			producer.SetReg(5, n)
			consumer := m.cores[2*pair+1].Context(0)
			consumer.SetPC(prog.Labels["cons"])
			consumer.SetReg(1, cell)
			consumer.SetReg(5, n)
			consumer.SetReg(8, vn.Word(200+pair))
		}
		cycles, err := m.Run(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if _, par := m.Engine().(*sim.ParallelEngine); par != (shards > 1) {
			t.Fatalf("shards=%d ran on %T", shards, m.Engine())
		}
		return snapshotHEP(m, uint64(cycles), 200)
	}
	want := run(1)
	if want.Sum != n*(n+1)/2 {
		t.Fatalf("sequential pair 0 summed %d, want %d", want.Sum, n*(n+1)/2)
	}
	for _, s := range []int{2, 3, 4} {
		if got := run(s); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d diverged from sequential:\n got %+v\nwant %+v", s, got, want)
		}
	}
}
