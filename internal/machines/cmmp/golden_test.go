package cmmp

import (
	"testing"

	"repro/internal/simtest"
	"repro/internal/vn"
)

// cmmpSnapshot pins every deterministic observable of a run: simulated
// cycles, architectural results, core cycle budgets, bank queue statistics,
// and crossbar traffic. Any kernel change that shifts one of these numbers
// is a change to simulated machine behaviour, not a refactor.
type cmmpSnapshot struct {
	Cycles       uint64  `json:"cycles"`
	Counter      int64   `json:"counter"`
	CoreBusy     uint64  `json:"core_busy"`
	CoreIdle     uint64  `json:"core_idle"`
	CoreMemWait  uint64  `json:"core_mem_wait"`
	CoreRetired  uint64  `json:"core_retired"`
	CoreSwitches uint64  `json:"core_switches"`
	MeanUtil     float64 `json:"mean_utilization"`
	BankServed   uint64  `json:"bank_served"`
	BankQMeanPPM uint64  `json:"bank_queue_mean_ppm"`
	BankQMax     int64   `json:"bank_queue_max"`
	XbarDeliv    uint64  `json:"xbar_delivered"`
	XbarRefused  uint64  `json:"xbar_refused"`
}

func snapshotCMMP(t *testing.T, m *Machine, cfg Config, cycles uint64) cmmpSnapshot {
	t.Helper()
	s := cmmpSnapshot{Cycles: cycles, Counter: int64(m.Peek(1)), MeanUtil: m.MeanUtilization()}
	for p := 0; p < cfg.Processors; p++ {
		st := m.Core(p).Stats()
		s.CoreBusy += st.Busy.Value()
		s.CoreIdle += st.Idle.Value()
		s.CoreMemWait += st.MemWait.Value()
		s.CoreRetired += st.Retired.Value()
		s.CoreSwitches += st.Switches.Value()
	}
	for b := 0; b < cfg.Banks; b++ {
		bank := m.Bank(b)
		s.BankServed += bank.Served.Value()
		// mean is a float ratio; pin it as parts-per-million to keep the
		// comparison exact under JSON round-tripping
		s.BankQMeanPPM += uint64(bank.QueueLen.Mean() * 1e6)
		if mx := bank.QueueLen.Max(); mx > s.BankQMax {
			s.BankQMax = mx
		}
	}
	s.XbarDeliv = m.Crossbar().Stats().Delivered.Value()
	s.XbarRefused = m.Crossbar().Stats().Refused.Value()
	return s
}

// TestGoldenSharedCounter pins the lock-contended shared-counter workload:
// heavy crossbar traffic, bank queueing, and retry backpressure.
func TestGoldenSharedCounter(t *testing.T) {
	cfg := Config{Processors: 8, Banks: 4}
	m := build(t, counterProgram, cfg, 25)
	cycles, err := m.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	simtest.Check(t, "testdata/golden_counter.json", snapshotCMMP(t, m, cfg, uint64(cycles)))
}

// TestGoldenMultiContext pins the same workload with 4 hardware contexts
// per core, exercising context switching over the crossbar.
func TestGoldenMultiContext(t *testing.T) {
	cfg := Config{Processors: 4, Banks: 4}
	prog, err := vn.Assemble(counterProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg, prog, 4)
	for p := 0; p < cfg.Processors; p++ {
		for k := 0; k < 4; k++ {
			m.Core(p).Context(k).SetReg(5, 10)
		}
	}
	cycles, err := m.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	simtest.Check(t, "testdata/golden_contexts.json", snapshotCMMP(t, m, cfg, uint64(cycles)))
}

// wideConfig is E7's largest point: 64 processors and 64 banks make a
// 128-port crossbar (two words of arbitration mask per output), and every
// processor spins on the one bank holding the lock, so a few outputs are
// requested every cycle while most are idle.
var wideConfig = Config{Processors: 64, Banks: 64}

// wideIters keeps the wide run short: about 33k cycles and 34k packets.
const wideIters = 4

// TestGoldenWideCrossbar pins the shared counter on the 128-port crossbar:
// hot-spot arbitration across mask words, with most outputs idle.
func TestGoldenWideCrossbar(t *testing.T) {
	m := build(t, counterProgram, wideConfig, wideIters)
	cycles, err := m.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	simtest.Check(t, "testdata/golden_wide.json", snapshotCMMP(t, m, wideConfig, uint64(cycles)))
}
