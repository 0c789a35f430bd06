package cmstar

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/vn"
)

func snapshotCmstar(m *Machine, cycles uint64) cmstarSnapshot {
	st := m.Stats()
	snap := cmstarSnapshot{
		Cycles:        cycles,
		LocalRefs:     st.LocalRefs.Value(),
		RemoteRefs:    st.RemoteRefs.Value(),
		RemoteLatMean: st.RemoteLatency.Mean(),
		RemoteLatMax:  st.RemoteLatency.Max(),
		MeanUtil:      m.MeanUtilization(),
	}
	for i := 0; i < m.NumCores(); i++ {
		cs := m.CoreAt(i).Stats()
		snap.CoreBusy += cs.Busy.Value()
		snap.CoreIdle += cs.Idle.Value()
		snap.CoreMemWait += cs.MemWait.Value()
		snap.CoreRetired += cs.Retired.Value()
	}
	return snap
}

// TestShardedBitIdentical pins the parallel kernel to the sequential one on
// the local/remote mix workload: cluster buses, the Kmap hop chain, and the
// serial request routing all stay serial while cores shard, and every
// statistic must match byte for byte at every shard count.
func TestShardedBitIdentical(t *testing.T) {
	run := func(shards int) cmstarSnapshot {
		prog, err := vn.Assemble(mixProgram)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Clusters: 4, CoresPerCluster: 2, ClusterWords: 1 << 12, Shards: shards}
		m := New(cfg, prog)
		words := uint32(1 << 12)
		for i := 0; i < m.NumCores(); i++ {
			cluster := i / cfg.CoresPerCluster
			ctx := m.CoreAt(i).Context(0)
			ctx.SetReg(1, vn.Word(uint32(cluster)*words+100+uint32(i)*16))
			far := cfg.Clusters - 1 - cluster
			ctx.SetReg(2, vn.Word(uint32(far)*words+500+uint32(i)*16))
			ctx.SetReg(5, 12)
		}
		cycles, err := m.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if _, par := m.Engine().(*sim.ParallelEngine); par != (shards > 1) {
			t.Fatalf("shards=%d ran on %T", shards, m.Engine())
		}
		return snapshotCmstar(m, uint64(cycles))
	}
	want := run(1)
	for _, s := range []int{2, 3, 4, 8} {
		if got := run(s); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d diverged from sequential:\n got %+v\nwant %+v", s, got, want)
		}
	}
}
