// Package cmstar models Cm* (Section 1.2.2): clusters of LSI-11-class
// processors, each cluster with its own memory and map bus, joined by
// Kmap communication controllers into a hierarchy. The Kmap itself could
// context-switch across outstanding remote references, but the processors
// could not: a non-local memory reference idles the issuing processor for
// the whole round trip. Greater inter-cluster distance therefore means
// longer reference times and lower processor utilization — the behaviour
// (Deminet's measurements) that, as the paper says, "demonstrated quite
// clearly the importance of Issue 1".
package cmstar

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vn"
)

// A cluster's map bus is occupied busService cycles per request and
// answers in busLatency; the Kmap is occupied kmapService cycles per
// remote request, charged at the source.
const (
	busService  sim.Cycle = 1
	busLatency  sim.Cycle = 3
	kmapService sim.Cycle = 4
)

// Config sizes the machine.
type Config struct {
	Clusters        int
	CoresPerCluster int
	// ClusterWords is the memory per cluster; global address a lives in
	// cluster a/ClusterWords.
	ClusterWords uint32
	// HopLatency is the per-cluster-hop transit time over the
	// intercluster links (clusters form a chain: distance |i-j|).
	HopLatency sim.Cycle
}

func (c Config) withDefaults() Config {
	if c.Clusters == 0 {
		c.Clusters = 4
	}
	if c.CoresPerCluster == 0 {
		c.CoresPerCluster = 4
	}
	if c.ClusterWords == 0 {
		c.ClusterWords = 1 << 16
	}
	if c.HopLatency == 0 {
		c.HopLatency = 12
	}
	return c
}

// Stats aggregates machine-level reference counts.
type Stats struct {
	LocalRefs  metrics.Counter
	RemoteRefs metrics.Counter
	// RemoteLatency observes round-trip times of remote references.
	RemoteLatency *metrics.Histogram
}

// Machine is the assembled Cm* model.
type Machine struct {
	cfg   Config
	cores []*vn.Core // flattened: cluster c core k = cores[c*CoresPerCluster+k]
	buses []*vn.BankedMemory
	// kq holds pending Kmap transits as typed events (not closures), so
	// in-flight remote references serialize into checkpoints.
	kq kmapQueue
	// pump is the registered event dispatcher, the wake target whenever a
	// Kmap transit event is scheduled.
	pump *eventPump
	// kmapBusy serializes each cluster's outgoing remote references.
	kmapBusy []sim.Cycle
	now      sim.Cycle
	engine   *sim.Engine
	stats    Stats

	// remoteOut tracks each remote reference between its forward transit
	// and its reply, keyed by the id its bus-side DoneRef carries.
	remoteOut map[uint64]*remoteRec
	remoteSeq uint64
}

// remoteRec is one outstanding remote reference.
type remoteRec struct {
	issued   sim.Cycle
	transit  sim.Cycle
	origRef  vn.DoneRef
	origDone func(vn.Word)
}

// kmapEvent is one scheduled Kmap transit: a forward request arriving at
// the remote cluster's bus, or a reply delivering to the issuing core.
type kmapEvent struct {
	at  sim.Cycle
	seq uint64

	isReply bool
	// forward transit
	target int
	req    vn.MemRequest
	// reply transit
	value    vn.Word
	issued   sim.Cycle
	origRef  vn.DoneRef
	origDone func(vn.Word)
}

// kmapQueue is a min-heap of transit events ordered by (at, seq): events
// due in the same cycle dispatch in the order they were scheduled. Its
// clock advances to each dispatched event's time, and reply scheduling is
// measured against that clock.
type kmapQueue struct {
	h   []kmapEvent
	now sim.Cycle
	seq uint64
}

func (q *kmapQueue) Len() int { return len(q.h) }

// Next reports the earliest pending transit, or sim.Never when empty.
func (q *kmapQueue) Next() sim.Cycle {
	if len(q.h) == 0 {
		return sim.Never
	}
	return q.h[0].at
}

func (q *kmapQueue) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

// push schedules ev, assigning its dispatch sequence number.
func (q *kmapQueue) push(ev kmapEvent) {
	if ev.at < q.now {
		panic(fmt.Sprintf("cmstar: transit scheduled at %d, now is %d", ev.at, q.now))
	}
	q.seq++
	ev.seq = q.seq
	q.h = append(q.h, ev)
	for i := len(q.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

// pop removes the earliest transit, advancing the queue clock to it.
func (q *kmapQueue) pop() kmapEvent {
	ev := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = kmapEvent{}
	q.h = q.h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(q.h) && q.less(l, min) {
			min = l
		}
		if r < len(q.h) && q.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
	q.now = ev.at
	return ev
}

// New builds the machine, loading prog into every core (blocking, one
// context: the LSI-11 could not micro-task).
func New(cfg Config, prog *vn.Program) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{
		cfg:       cfg,
		kmapBusy:  make([]sim.Cycle, cfg.Clusters),
		remoteOut: map[uint64]*remoteRec{},
	}
	m.stats.RemoteLatency = metrics.NewHistogram(4, 8, 16, 32, 64, 128, 256, 512)
	for c := 0; c < cfg.Clusters; c++ {
		m.buses = append(m.buses, vn.NewBankedMemory(busLatency, busService))
		for k := 0; k < cfg.CoresPerCluster; k++ {
			port := &clusterPort{m: m, cluster: c}
			core := vn.NewCore(prog, port, 1)
			core.SetSaveID(c*cfg.CoresPerCluster + k)
			m.cores = append(m.cores, core)
		}
	}
	m.pump = &eventPump{m: m}
	m.engine = sim.NewEngine()
	m.engine.Register(m.pump)
	for _, b := range m.buses {
		m.engine.Register(b)
	}
	for _, c := range m.cores {
		m.engine.Register(c)
	}
	return m
}

// eventPump dispatches due Kmap transit events and tracks machine time; it
// steps first so remote deliveries precede bus and core activity, exactly
// as the hand-rolled step order had it.
type eventPump struct{ m *Machine }

func (p *eventPump) Step(now sim.Cycle) {
	p.m.now = now
	for p.m.kq.Len() > 0 && p.m.kq.Next() <= now {
		p.m.dispatch(p.m.kq.pop())
	}
}

func (p *eventPump) NextEvent(now sim.Cycle) sim.Cycle {
	if t := p.m.kq.Next(); t > now {
		return t
	}
	return now
}

// dispatch runs one due transit.
func (m *Machine) dispatch(ev kmapEvent) {
	if ev.isReply {
		m.stats.RemoteLatency.Observe(uint64(m.now - ev.issued))
		ev.origDone(ev.value)
		return
	}
	m.buses[ev.target].Request(ev.req)
}

// clusterPort is the memory interface seen by cores of one cluster.
type clusterPort struct {
	m       *Machine
	cluster int
}

// Words bounds the cores' addresses to the clusters' memory
// (vn.AddressSpace), so an address beyond it is a core fault.
func (p *clusterPort) Words() uint64 {
	return uint64(p.m.cfg.Clusters) * uint64(p.m.cfg.ClusterWords)
}

// Request routes locally over the map bus or remotely through the Kmap.
func (p *clusterPort) Request(r vn.MemRequest) {
	m := p.m
	target := int(r.Addr / m.cfg.ClusterWords)
	if target >= m.cfg.Clusters {
		panic(fmt.Sprintf("cmstar: address %d beyond cluster space", r.Addr))
	}
	local := r.Addr % m.cfg.ClusterWords
	if target == p.cluster {
		m.stats.LocalRefs.Inc()
		r.Addr = local
		m.buses[target].Request(r)
		return
	}
	// Remote: source Kmap serializes, then the request transits |i-j|
	// hops, queues at the remote bus, and the reply transits back.
	m.stats.RemoteRefs.Inc()
	dist := target - p.cluster
	if dist < 0 {
		dist = -dist
	}
	transit := m.cfg.HopLatency * sim.Cycle(dist)
	// Issue time comes from the engine clock: the pump (which tracks m.now)
	// only steps when events are due, but requests issue mid-tick.
	start := m.engine.Now()
	if m.kmapBusy[p.cluster] > start {
		start = m.kmapBusy[p.cluster]
	}
	m.kmapBusy[p.cluster] = start + kmapService
	issued := m.engine.Now()
	id := m.remoteSeq
	m.remoteSeq++
	m.remoteOut[id] = &remoteRec{issued: issued, transit: transit, origRef: r.Ref, origDone: r.Done}
	remote := r
	remote.Addr = local
	remote.Ref = vn.DoneRef{Kind: doneRefRemoteReply, B: id}
	remote.Done = m.remoteReplyDone(id)
	at := start + kmapService + transit
	m.kq.push(kmapEvent{at: at, target: target, req: remote})
	m.engine.Wake(m.pump, at)
}

// remoteReplyDone returns the bus-side completion of remote reference id:
// schedule the reply's return transit, measured against the transit
// queue's clock exactly as the event-queue formulation did. Both the live
// path and checkpoint restore build the callback here.
func (m *Machine) remoteReplyDone(id uint64) func(vn.Word) {
	return func(v vn.Word) {
		rec := m.remoteOut[id]
		delete(m.remoteOut, id)
		at := m.kq.now + rec.transit
		m.kq.push(kmapEvent{
			at: at, isReply: true,
			value: v, issued: rec.issued, origRef: rec.origRef, origDone: rec.origDone,
		})
		m.engine.Wake(m.pump, at)
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

// busy reports in-flight Kmap transits or bus traffic.
func (m *Machine) busy() bool {
	if m.kq.Len() > 0 {
		return true
	}
	for _, b := range m.buses {
		if b.Pending() > 0 {
			return true
		}
	}
	return false
}

// Run drives the shared engine until all cores halt and traffic drains.
// A core's address fault is returned as the error. Stopping at limit
// is a sim.ErrLimit pause.
func (m *Machine) Run(limit sim.Cycle) (sim.Cycle, error) {
	elapsed, ok := m.engine.Run(func() bool {
		return m.Halted() && !m.busy()
	}, limit)
	if err := vn.FirstFault(m.cores); err != nil {
		return elapsed, err
	}
	if !ok {
		return elapsed, sim.Limitf("cmstar: did not halt within %d cycles", limit)
	}
	return elapsed, nil
}

// Core returns the k-th core of cluster c.
func (m *Machine) Core(c, k int) *vn.Core { return m.cores[c*m.cfg.CoresPerCluster+k] }

// NumCores returns the total processor count.
func (m *Machine) NumCores() int { return len(m.cores) }

// CoreAt returns core i in flattened order.
func (m *Machine) CoreAt(i int) *vn.Core { return m.cores[i] }

// Poke writes a global address directly.
func (m *Machine) Poke(addr uint32, v vn.Word) {
	m.buses[addr/m.cfg.ClusterWords].Poke(addr%m.cfg.ClusterWords, v)
}

// Peek reads a global address directly.
func (m *Machine) Peek(addr uint32) vn.Word {
	return m.buses[addr/m.cfg.ClusterWords].Peek(addr % m.cfg.ClusterWords)
}

// Stats returns machine-level reference statistics.
func (m *Machine) Stats() *Stats { return &m.stats }

// Engine exposes the simulation engine (scheduling counters).
func (m *Machine) Engine() *sim.Engine { return m.engine }

// MeanUtilization averages processor utilization.
func (m *Machine) MeanUtilization() float64 {
	u := 0.0
	for _, c := range m.cores {
		u += c.Stats().Utilization()
	}
	return u / float64(len(m.cores))
}
