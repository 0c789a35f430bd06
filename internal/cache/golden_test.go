package cache

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simtest"
)

type cacheSnapshot struct {
	Cycles          uint64  `json:"cycles"`
	Hits            uint64  `json:"hits"`
	Misses          uint64  `json:"misses"`
	Upgrades        uint64  `json:"upgrades"`
	Invalidations   uint64  `json:"invalidations"`
	Writebacks      uint64  `json:"writebacks"`
	BusTransactions uint64  `json:"bus_transactions,omitempty"`
	BusBusyFrac     float64 `json:"bus_busy_frac,omitempty"`
	DirOps          uint64  `json:"dir_ops,omitempty"`
	InvMsgs         uint64  `json:"inv_msgs,omitempty"`
	DirQMeanPPM     uint64  `json:"dir_queue_mean_ppm,omitempty"`
	DirQMax         int64   `json:"dir_queue_max,omitempty"`
	MemChecksum     int64   `json:"mem_checksum"`
}

// goldenWorkload mirrors the E3 access pattern: hot shared words with 25%
// writes, driven to quiescence.
func goldenWorkload(request func(cpu int, a Access)) {
	rng := sim.NewRNG(42)
	const accessesPerCPU, cpus = 120, 4
	for i := 0; i < accessesPerCPU; i++ {
		for cpu := 0; cpu < cpus; cpu++ {
			addr := uint32(rng.Intn(8))
			request(cpu, Access{Addr: addr, Write: rng.Bool(0.25), Value: int64(i + cpu)})
		}
	}
}

// TestGoldenSnoopy pins the snoopy-bus system's cycle count and coherence
// traffic on the shared-hot-words workload.
func TestGoldenSnoopy(t *testing.T) {
	s := NewSystem(4)
	goldenWorkload(s.Request)
	eng := sim.NewEngine()
	eng.Register(s)
	elapsed, ok := eng.Run(func() bool { return !s.Pending() }, 50_000_000)
	if !ok {
		t.Fatal("snoopy system did not settle")
	}
	cycles := uint64(elapsed)
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	snap := cacheSnapshot{
		Cycles:          cycles,
		BusTransactions: s.BusTransactions.Value(),
		BusBusyFrac:     s.BusBusy.Fraction(),
	}
	for i := 0; i < s.NumCPUs(); i++ {
		st := s.Stats(i)
		snap.Hits += st.Hits.Value()
		snap.Misses += st.Misses.Value()
		snap.Upgrades += st.Upgrades.Value()
		snap.Invalidations += st.Invalidations.Value()
		snap.Writebacks += st.Writebacks.Value()
	}
	for a := uint32(0); a < 8; a++ {
		snap.MemChecksum += s.Peek(a) * int64(a+1)
	}
	simtest.Check(t, "testdata/golden_snoopy.json", snap)
}

// TestGoldenDirectory pins the directory system on the same workload.
func TestGoldenDirectory(t *testing.T) {
	s := NewDirectorySystem(4, 3)
	goldenWorkload(s.Request)
	eng := sim.NewEngine()
	eng.Register(s)
	elapsed, ok := eng.Run(func() bool { return !s.Pending() }, 50_000_000)
	if !ok {
		t.Fatal("directory system did not settle")
	}
	cycles := uint64(elapsed)
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	snap := cacheSnapshot{
		Cycles:      cycles,
		DirOps:      s.DirOps.Value(),
		InvMsgs:     s.InvalidationMsgs.Value(),
		DirQMeanPPM: uint64(s.DirQueueLen.Mean() * 1e6),
		DirQMax:     s.DirQueueLen.Max(),
	}
	for i := 0; i < s.NumCPUs(); i++ {
		st := s.Stats(i)
		snap.Hits += st.Hits.Value()
		snap.Misses += st.Misses.Value()
		snap.Upgrades += st.Upgrades.Value()
		snap.Invalidations += st.Invalidations.Value()
		snap.Writebacks += st.Writebacks.Value()
	}
	for a := uint32(0); a < 8; a++ {
		snap.MemChecksum += s.Peek(a) * int64(a+1)
	}
	simtest.Check(t, "testdata/golden_directory.json", snap)
}
