// Package cmmp models C.mmp (Section 1.2.1): up to 16 minicomputer-class
// processors connected to shared memory banks through a crossbar switch.
// Processors run the blocking vn core (one outstanding memory reference);
// synchronization uses TAS spinlocks, the Hydra-style semaphore whose cost
// relative to an ALU operation the paper calls "rather high".
//
// The two measurable claims reproduced from the paper's discussion:
//
//   - the crossbar's cost grows at least quadratically with port count
//     (network.CrossbarCost), while its latency is flat until contention;
//   - semaphore acquire/release costs tens of ALU-operation equivalents,
//     and grows with contention.
package cmmp

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/vn"
)

// Config sizes the machine.
type Config struct {
	Processors int
	Banks      int
	// BankWords is the address space per bank; addresses interleave
	// word-by-word across banks.
	BankWords uint32
	// SwitchDelay is the crossbar transit time.
	SwitchDelay sim.Cycle
	// BankService is the per-request bank occupancy.
	BankService sim.Cycle
	// Shards > 1 runs the processors on the conservative parallel kernel
	// (sim.ParallelEngine), bit-identical to the sequential engine.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.Processors == 0 {
		c.Processors = 16
	}
	if c.Banks == 0 {
		c.Banks = 16
	}
	if c.BankWords == 0 {
		c.BankWords = 1 << 16
	}
	if c.SwitchDelay == 0 {
		c.SwitchDelay = 2
	}
	if c.BankService == 0 {
		c.BankService = 2
	}
	return c
}

// Machine is the assembled C.mmp model.
type Machine struct {
	cfg   Config
	cores []*vn.Core
	xbar  *network.Crossbar
	banks []*vn.BankedMemory

	// retry holds refused crossbar sends for in-order reinjection.
	retry  *network.RetryQueue
	engine sim.Driver

	// Free lists recycle the two allocations on the memory hot path — one
	// packet and one payload per crossbar crossing — so steady-state
	// traffic allocates nothing. Both are exclusively owned: the crossbar
	// drops its reference before deliver runs, and deliver copies what it
	// needs out before recycling.
	pktFree []*network.Packet
	msgFree []*memMsg
}

// getMsg returns a zeroed payload, recycled when possible.
func (m *Machine) getMsg() *memMsg {
	if n := len(m.msgFree); n > 0 {
		msg := m.msgFree[n-1]
		m.msgFree = m.msgFree[:n-1]
		*msg = memMsg{}
		return msg
	}
	return &memMsg{}
}

// getPacket returns a packet carrying payload, recycled when possible.
func (m *Machine) getPacket(src, dst int, payload interface{}) *network.Packet {
	var pkt *network.Packet
	if n := len(m.pktFree); n > 0 {
		pkt = m.pktFree[n-1]
		m.pktFree = m.pktFree[:n-1]
		pkt.Reset()
	} else {
		pkt = &network.Packet{}
	}
	pkt.Src, pkt.Dst, pkt.Payload = src, dst, payload
	return pkt
}

// putPacket recycles a delivered packet and its payload.
func (m *Machine) putPacket(pkt *network.Packet, msg *memMsg) {
	m.pktFree = append(m.pktFree, pkt)
	m.msgFree = append(m.msgFree, msg)
}

// memMsg is a request or response crossing the crossbar. origRef names the
// issuing context alongside origDone so replies in flight survive a
// checkpoint.
type memMsg struct {
	req      vn.MemRequest
	isReply  bool
	value    vn.Word
	origDone func(vn.Word)
	origRef  vn.DoneRef
}

// port numbering: 0..P-1 processors, P..P+B-1 banks.
func (m *Machine) bankPort(b int) int { return m.cfg.Processors + b }

// New builds the machine and loads the same program into every core with k
// hardware contexts each (k=1 for the historical blocking configuration).
func New(cfg Config, prog *vn.Program, contextsPerCore int) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg}
	ports := cfg.Processors + cfg.Banks
	m.xbar = network.NewCrossbar(ports, cfg.SwitchDelay, 64)
	m.retry = network.NewRetryQueue(m.xbar.Send)
	m.banks = make([]*vn.BankedMemory, cfg.Banks)
	for b := range m.banks {
		m.banks[b] = vn.NewBankedMemory(1, cfg.BankService)
	}
	m.xbar.SetDelivery(m.deliver)
	for p := 0; p < cfg.Processors; p++ {
		port := &cpuPort{m: m, cpu: p}
		c := vn.NewCore(prog, port, contextsPerCore)
		c.SetSaveID(p)
		m.cores = append(m.cores, c)
	}
	if cfg.Shards > 1 && cfg.Processors > 1 {
		par := sim.NewParallelEngine()
		m.engine = par
		par.Register(m.retry)
		par.Register(m.xbar)
		for _, b := range m.banks {
			par.Register(b)
		}
		vn.ShardCores(par, m.cores, cfg.Shards, vn.FabricLookahead(m.xbar))
	} else {
		eng := sim.NewEngine()
		m.engine = eng
		eng.Register(m.retry)
		eng.Register(m.xbar)
		for _, b := range m.banks {
			eng.Register(b)
		}
		for _, c := range m.cores {
			eng.Register(c)
		}
	}
	return m
}

// cpuPort adapts a core's memory interface to crossbar packets.
type cpuPort struct {
	m   *Machine
	cpu int
}

// Request routes the memory operation to its bank through the crossbar.
func (p *cpuPort) Request(r vn.MemRequest) {
	bank := int(r.Addr) % p.m.cfg.Banks
	msg := p.m.getMsg()
	msg.req = r
	p.m.send(p.m.getPacket(p.cpu, p.m.bankPort(bank), msg))
}

// send transmits with per-source retry on backpressure.
func (m *Machine) send(pkt *network.Packet) {
	m.retry.Send(pkt)
}

// deliver handles packets reaching their crossbar output.
func (m *Machine) deliver(pkt *network.Packet) {
	msg := pkt.Payload.(*memMsg)
	if msg.isReply {
		done, v := msg.origDone, msg.value
		m.putPacket(pkt, msg)
		done(v)
		return
	}
	// arrived at a bank: perform the access, then send the reply back
	bank := pkt.Dst - m.cfg.Processors
	cpu := pkt.Src
	req := msg.req
	m.putPacket(pkt, msg)
	orig, origRef := req.Done, req.Ref
	req.Addr = req.Addr / uint32(m.cfg.Banks)
	req.Done = m.bankReplyDone(bank, cpu, orig, origRef)
	req.Ref = wrapBankReply(bank, cpu, origRef)
	m.banks[bank].Request(req)
}

// bankReplyDone returns the bank-side completion: package the value as a
// reply message and send it back across the crossbar to the issuing
// processor. Both the live path (deliver) and checkpoint restore build
// the callback here, so restored machines behave identically.
func (m *Machine) bankReplyDone(bank, cpu int, orig func(vn.Word), origRef vn.DoneRef) func(vn.Word) {
	return func(v vn.Word) {
		rm := m.getMsg()
		rm.isReply, rm.value, rm.origDone, rm.origRef = true, v, orig, origRef
		m.send(m.getPacket(m.bankPort(bank), cpu, rm))
	}
}

// Halted reports whether every core halted.
func (m *Machine) Halted() bool {
	for _, c := range m.cores {
		if !c.Halted() {
			return false
		}
	}
	return true
}

// drainPending reports outstanding traffic.
func (m *Machine) drainPending() bool {
	if m.xbar.Pending() > 0 || m.retry.Len() > 0 {
		return true
	}
	for _, b := range m.banks {
		if b.Pending() > 0 {
			return true
		}
	}
	return false
}

// Run drives the shared engine until every core halts and the memory
// system drains. A core's address fault is returned as the error.
func (m *Machine) Run(limit sim.Cycle) (sim.Cycle, error) {
	elapsed, ok := m.engine.Run(func() bool {
		return m.Halted() && !m.drainPending()
	}, limit)
	if err := vn.FirstFault(m.cores); err != nil {
		return elapsed, err
	}
	if !ok {
		return elapsed, fmt.Errorf("cmmp: did not halt within %d cycles", limit)
	}
	return elapsed, nil
}

// Core returns processor p.
func (m *Machine) Core(p int) *vn.Core { return m.cores[p] }

// Bank returns bank b (for Poke/Peek with bank-local addresses).
func (m *Machine) Bank(b int) *vn.BankedMemory { return m.banks[b] }

// Poke writes a global address directly.
func (m *Machine) Poke(addr uint32, v vn.Word) {
	m.banks[int(addr)%m.cfg.Banks].Poke(addr/uint32(m.cfg.Banks), v)
}

// Peek reads a global address directly.
func (m *Machine) Peek(addr uint32) vn.Word {
	return m.banks[int(addr)%m.cfg.Banks].Peek(addr / uint32(m.cfg.Banks))
}

// Crossbar exposes the switch for statistics.
func (m *Machine) Crossbar() *network.Crossbar { return m.xbar }

// Engine exposes the simulation engine (scheduling counters).
func (m *Machine) Engine() sim.Driver { return m.engine }

// WorkerSteps reports per-shard step counts, in shard order (nil when
// sequential).
func (m *Machine) WorkerSteps() []uint64 {
	if par, ok := m.engine.(*sim.ParallelEngine); ok {
		return par.WorkerSteps()
	}
	return nil
}

// MeanUtilization averages core utilization.
func (m *Machine) MeanUtilization() float64 {
	u := 0.0
	for _, c := range m.cores {
		u += c.Stats().Utilization()
	}
	return u / float64(len(m.cores))
}
