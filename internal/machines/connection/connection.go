// Package connection models the Connection Machine proposal of Section
// 1.2.5: a SIMD array of very simple processors (a few registers and a
// 1-bit ALU), a single instruction sequencer, and a packet-routed
// hypercube joining groups of grid-connected cells. One instruction is
// broadcast at a time; a routing instruction runs until every message is
// delivered and the global flag rises, and only then does the next
// instruction begin.
//
// The paper's quantitative remark — that such a machine spends almost all
// (90%? 99%?) of its time communicating, making 1-bit ALU speed irrelevant
// — is what E10 measures, along with the grid-vs-hypercube routing gap.
//
// SIMD lockstep means every cell executes the same broadcast instruction
// against the shared router, so the whole array is one component on the
// engine.
package connection

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
)

// Router is the communication fabric joining the processors.
type Router uint8

// Router choices.
const (
	RouterHypercube Router = iota
	RouterGrid
)

// Config sizes the machine.
type Config struct {
	// LogPEs is log2 of the processor count (the proposal: 20, a million
	// cells; experiments use smaller).
	LogPEs int
	// Router picks the fabric: the CM hypercube or an Illiac-IV-style
	// grid (requires LogPEs even for a square grid).
	Router Router
}

// Router buffers hold queueCap packets. wordBits scales instruction cost:
// a wordBits-bit operation on a 1-bit ALU takes wordBits cycles.
const (
	queueCap = 8
	wordBits = 16
)

func (c Config) withDefaults() Config {
	if c.LogPEs == 0 {
		c.LogPEs = 8
	}
	return c
}

// Message is one routed datum between cells.
type Message struct {
	From, To int
	Value    int64
}

// Machine is the SIMD array plus sequencer.
type Machine struct {
	cfg Config
	n   int
	net network.Network

	// Mem is each cell's local storage (word-addressed, tiny — the
	// proposal gives each cell a few dozen bits).
	mem [][]int64

	// sequencer accounting
	ComputeCycles metrics.Counter
	RouteCycles   metrics.Counter
	Routed        metrics.Counter
	RouteSteps    *metrics.Histogram

	pendingDeliver []*network.Packet
	// retry holds injections refused by router backpressure.
	retry   *network.RetryQueue
	engine  *sim.Engine
	deliver func(to int, value int64) // per-Route delivery callback
}

// New builds the machine with memWords of local memory per cell.
func New(cfg Config, memWords int) *Machine {
	cfg = cfg.withDefaults()
	n := 1 << cfg.LogPEs
	m := &Machine{cfg: cfg, n: n}
	switch cfg.Router {
	case RouterHypercube:
		m.net = network.NewHypercube(cfg.LogPEs, queueCap)
	case RouterGrid:
		side := 1 << (cfg.LogPEs / 2)
		if side*side != n {
			panic(fmt.Sprintf("connection: grid router needs a square PE count, got 2^%d", cfg.LogPEs))
		}
		m.net = network.NewMesh(side, side, true, queueCap)
	}
	m.net.SetDelivery(func(p *network.Packet) {
		m.pendingDeliver = append(m.pendingDeliver, p)
	})
	m.mem = make([][]int64, n)
	for i := range m.mem {
		m.mem[i] = make([]int64, memWords)
	}
	m.RouteSteps = metrics.NewHistogram(4, 8, 16, 32, 64, 128, 256, 512, 1024)
	m.retry = network.NewRetryQueue(m.net.Send)
	// One engine tick is one router step; the links are bit-serial, so a
	// word-sized message occupies its link for a full word time and each
	// tick costs wordBits sequencer cycles.
	m.engine = sim.NewEngine()
	m.engine.SetStride(wordBits)
	m.engine.Register(&routePass{m: m})
	return m
}

// routePass is one router step as an engine component: reinject refused
// packets, move the fabric, deliver arrivals, and account sequencer time.
type routePass struct{ m *Machine }

func (r *routePass) Step(now sim.Cycle) {
	m := r.m
	m.retry.Drain()
	m.net.Step(now)
	m.RouteCycles.Add(wordBits)
	for _, p := range m.pendingDeliver {
		m.deliver(p.Dst, p.Payload.(int64))
		m.Routed.Inc()
	}
	m.pendingDeliver = m.pendingDeliver[:0]
}

func (r *routePass) NextEvent(now sim.Cycle) sim.Cycle {
	if r.m.retry.Len() > 0 || r.m.net.Pending() > 0 {
		return now
	}
	return sim.Never
}

// NumPEs returns the cell count.
func (m *Machine) NumPEs() int { return m.n }

// Mem returns cell pe's local memory.
func (m *Machine) Mem(pe int) []int64 { return m.mem[pe] }

// Compute broadcasts one word-wide compute instruction: f runs on every
// cell (cells opt out by doing nothing), costing wordBits cycles of
// sequencer time — the 1-bit-ALU tax.
func (m *Machine) Compute(f func(pe int, mem []int64)) {
	for pe := 0; pe < m.n; pe++ {
		f(pe, m.mem[pe])
	}
	m.ComputeCycles.Add(wordBits)
	m.engine.Advance(wordBits)
}

// Route broadcasts a routing instruction: every message is injected and
// the router steps until all are delivered (the global all-done flag).
// deliver is called once per arriving message. Route returns the number of
// router cycles consumed.
func (m *Machine) Route(msgs []Message, deliver func(to int, value int64)) sim.Cycle {
	// injection may itself take multiple cycles under backpressure
	start := m.engine.Now()
	m.deliver = deliver
	for _, msg := range msgs {
		m.retry.Send(&network.Packet{Src: msg.From, Dst: msg.To, Payload: msg.Value})
	}
	_, ok := m.engine.Run(func() bool {
		return m.retry.Len() == 0 && m.net.Pending() == 0
	}, 1_000_000*wordBits)
	if !ok {
		panic("connection: routing did not converge")
	}
	m.deliver = nil
	steps := m.engine.Now() - start
	m.RouteSteps.Observe(uint64(steps))
	return steps
}

// CommFraction is the share of sequencer time spent routing — the number
// the paper guesses at ("90%?, 99%?").
func (m *Machine) CommFraction() float64 {
	total := m.ComputeCycles.Value() + m.RouteCycles.Value()
	if total == 0 {
		return 0
	}
	return float64(m.RouteCycles.Value()) / float64(total)
}

// Network exposes the router for statistics.
func (m *Machine) Network() network.Network { return m.net }
