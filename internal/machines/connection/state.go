package connection

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
)

// Checkpoints are taken between broadcast instructions — the machine's one
// natural boundary: the sequencer issues a single instruction at a time
// and Route runs to convergence before returning, so outside an
// instruction the router is drained and no delivery callback is live. The
// SIMD program itself is host code and is not part of the state; resuming
// a checkpoint means re-running the host program from the matching
// instruction boundary against the restored array.

// wordCodec serializes the only payload type the array routes: one word.
type wordCodec struct{}

func (wordCodec) Save(e *sim.Enc, v interface{}) {
	w, ok := v.(int64)
	if !ok {
		panic(fmt.Sprintf("connection: unexpected payload %T", v))
	}
	e.I64(w)
}

func (wordCodec) Load(d *sim.Dec) interface{} { return d.I64() }

// SaveState serializes the array between broadcast instructions
// (sim.Stateful). It panics when called mid-Route: the delivery callback
// is host code and cannot be carried in a checkpoint.
func (m *Machine) SaveState(e *sim.Enc) {
	if m.deliver != nil {
		panic("connection: cannot checkpoint during a routing instruction")
	}
	if len(m.pendingDeliver) != 0 {
		panic("connection: undelivered packets outside a routing instruction")
	}
	e.Tag("connmach", 1)
	e.Int(m.cfg.LogPEs)
	e.U8(uint8(m.cfg.Router))
	e.Int(queueCap)
	e.Int(wordBits)
	e.Int(len(m.mem[0]))
	m.engine.SaveState(e)
	for pe := range m.mem {
		for _, w := range m.mem[pe] {
			e.I64(w)
		}
	}
	m.ComputeCycles.Save(e)
	m.RouteCycles.Save(e)
	m.Routed.Save(e)
	m.RouteSteps.Save(e)
	m.net.(network.Checkpointable).SaveTo(e, wordCodec{})
	m.retry.SaveTo(e, wordCodec{})
}

// LoadState restores the array (sim.Stateful).
func (m *Machine) LoadState(d *sim.Dec) error {
	if err := d.Tag("connmach", 1); err != nil {
		return err
	}
	shape := []struct {
		name string
		want int
	}{
		{"log-pes", m.cfg.LogPEs},
		{"router", int(m.cfg.Router)},
		{"queue-cap", queueCap},
		{"word-bits", wordBits},
		{"mem-words", len(m.mem[0])},
	}
	for _, s := range shape {
		if s.name == "router" {
			if got := int(d.U8()); got != s.want {
				return fmt.Errorf("checkpoint: connection: %s %d, machine has %d", s.name, got, s.want)
			}
			continue
		}
		if got := d.Int(); got != s.want {
			return fmt.Errorf("checkpoint: connection: %s %d, machine has %d", s.name, got, s.want)
		}
	}
	if err := m.engine.LoadState(d); err != nil {
		return err
	}
	for pe := range m.mem {
		for i := range m.mem[pe] {
			m.mem[pe][i] = d.I64()
		}
	}
	m.ComputeCycles.Load(d)
	m.RouteCycles.Load(d)
	m.Routed.Load(d)
	m.RouteSteps.Load(d)
	if err := m.net.(network.Checkpointable).LoadFrom(d, wordCodec{}); err != nil {
		return err
	}
	if err := m.retry.LoadFrom(d, wordCodec{}, m.n); err != nil {
		return err
	}
	m.pendingDeliver = m.pendingDeliver[:0]
	return d.Err()
}

var _ sim.Stateful = (*Machine)(nil)
