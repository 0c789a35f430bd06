// Package emulator implements the second prong of the paper's Figure 3-1
// development plan: the multiprocessor emulation facility. Where
// internal/core models the tagged-token machine with detailed timing, the
// emulator gives up internal timings to run big programs fast — exactly
// the trade the paper describes. It interprets every processing element
// (with its integrated packet-switch module) on the caller's goroutine:
// each posted message waits in one facility queue, tagged with the node
// whose switch holds it, and messages are handled in posting order, one
// hop at a time, so every count a run reports repeats exactly.
//
// The facility reproduces the Section 3 mechanisms:
//
//   - a (2^dim)-node hypercube of PE+switch modules;
//   - table-based routing, so the experimenter can remap around topology
//     changes;
//   - link-fault injection with re-routing over the cube's redundancy
//     ("the hardware has the capability of exploiting the redundancy in
//     the hypercube network ... for fault tolerance");
//   - static partitioning into independent sub-machines.
//
// It executes the same compiled plan (graph.CompiledGraph) as the other
// executors — internal/core, the reference interpreter and
// internal/direct — and must agree with them on every answer.
package emulator

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/token"
)

// Config parameterizes the facility.
type Config struct {
	// Dim is the hypercube dimension: 2^Dim PE+switch modules. The
	// paper's facility was 32 to 128 processors (dim 5 to 7); dimension
	// zero is a single module running the whole program.
	Dim int
}

// maxDim bounds the cube at 2^20 nodes, far past the paper's 128: a
// larger cube is certainly a configuration mistake.
const maxDim = 20

// maxMessages bounds total message traffic as a runaway guard.
const maxMessages = 500_000_000

// message is one packet between switch modules.
type message struct {
	at  int // the node whose switch the message waits at
	dst int
	// exactly one of tok / isReq is meaningful
	tok   token.Token
	isReq *isRequest
}

type isRequest struct {
	write bool
	addr  uint32
	value token.Value
	// for reads:
	reply replyTag
}

type replyTag struct {
	activity token.ActivityName
	port     uint8
	nt       uint8
}

// Facility is the assembled emulation machine.
type Facility struct {
	dim        int
	n          int
	cg         *graph.CompiledGraph
	compileErr error
	nodes      []*node
	// runNodes is the node subset the current run spreads work over (the
	// selected partition; the whole cube by default).
	runNodes []int

	// routing: next hop tables, guarded because KillLink may re-route
	// from another goroutine mid-run
	routeMu sync.RWMutex
	alive   [][]bool
	table   [][]int16 // table[node][dst] = next node (or -1)
	part    []int

	// queue holds every posted message not yet handled, in posting order
	queue sim.FIFO[message]

	// context manager (the facility's "microcode task")
	nextCtx token.Context
	ctxs    map[token.Context]graph.Invocation

	// nextAddr is the first I-structure address not yet allocated
	nextAddr uint32

	results []token.Value
	runErr  error

	// shortest sums each originated message's shortest route, the
	// Hamming distance from its source node to its destination
	shortest uint64

	// statistics: Messages counts every message posted, Hops every
	// forwarding step between switch modules; atomic so that another
	// goroutine may watch a run's progress
	Messages atomic.Uint64
	Hops     atomic.Uint64
	Fired    atomic.Uint64
}

// settleCtx stores rec as context u's record, or reclaims it once Done.
func (f *Facility) settleCtx(u token.Context, rec graph.Invocation) {
	if rec.Done(f.cg) {
		delete(f.ctxs, u)
	} else {
		f.ctxs[u] = rec
	}
}

// node is one PE plus its integrated switch module: its waiting-matching
// store and the I-structure cells it owns.
type node struct {
	f       *Facility
	id      int
	waiting graph.MatchTable
	cells   map[uint32]*cell

	processed uint64
}

type cell struct {
	present bool
	value   token.Value
	waiters []replyTag
}

// New builds a facility for the program with a defaulted configuration;
// it panics on an invalid size (use Build to get the error instead).
func New(cfg Config, prog *graph.Program) *Facility {
	f, err := Build(cfg, prog)
	if err != nil {
		panic(err)
	}
	return f
}

// Build validates cfg and assembles a facility for the program, compiling
// its execution plan once. A dimension outside [0, maxDim] is reported as
// an error; a program that fails to compile still yields a facility, and
// its Run reports the failure.
func Build(cfg Config, prog *graph.Program) (*Facility, error) {
	if cfg.Dim < 0 || cfg.Dim > maxDim {
		return nil, fmt.Errorf("emulator: dimension %d outside [0, %d]", cfg.Dim, maxDim)
	}
	cg, err := graph.Compile(prog)
	n := 1 << cfg.Dim
	f := &Facility{
		dim:        cfg.Dim,
		n:          n,
		cg:         cg,
		compileErr: err,
		nextCtx:    1,
		ctxs:       map[token.Context]graph.Invocation{},
		alive:      make([][]bool, n),
		part:       make([]int, n),
	}
	for i := 0; i < n; i++ {
		f.alive[i] = make([]bool, cfg.Dim)
		for k := range f.alive[i] {
			f.alive[i][k] = true
		}
		f.nodes = append(f.nodes, &node{f: f, id: i, cells: map[uint32]*cell{}})
	}
	f.recomputeTablesLocked()
	return f, nil
}

// KillLink disables the dimension-k link at nd (both directions) and
// re-routes around it, usable mid-run.
func (f *Facility) KillLink(nd, k int) {
	f.routeMu.Lock()
	defer f.routeMu.Unlock()
	f.alive[nd][k] = false
	f.alive[nd^(1<<k)][k] = false
	f.recomputeTablesLocked()
}

// Partition splits the facility; nil restores one machine. Programs run
// within the partition of the node their tokens hash to, so partitioning
// is meaningful for runs started with RunPartition.
func (f *Facility) Partition(assign []int) {
	f.routeMu.Lock()
	defer f.routeMu.Unlock()
	if assign == nil {
		for i := range f.part {
			f.part[i] = 0
		}
	} else {
		copy(f.part, assign)
	}
	f.recomputeTablesLocked()
}

// recomputeTablesLocked rebuilds next-hop tables by BFS over live,
// same-partition links. Caller holds routeMu.
func (f *Facility) recomputeTablesLocked() {
	f.table = make([][]int16, f.n)
	for i := range f.table {
		f.table[i] = make([]int16, f.n)
		for j := range f.table[i] {
			f.table[i][j] = -1
		}
	}
	dist := make([]int, f.n)
	q := make([]int, 0, f.n)
	for dst := 0; dst < f.n; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		q = q[:0]
		q = append(q, dst)
		for len(q) > 0 {
			cur := q[0]
			q = q[1:]
			for k := 0; k < f.dim; k++ {
				if !f.alive[cur][k] {
					continue
				}
				nb := cur ^ (1 << k)
				if f.part[nb] != f.part[dst] {
					continue
				}
				if dist[nb] < 0 {
					dist[nb] = dist[cur] + 1
					f.table[nb][dst] = int16(cur)
					q = append(q, nb)
				}
			}
		}
	}
}

// nextHop consults the routing table.
func (f *Facility) nextHop(at, dst int) int {
	f.routeMu.RLock()
	defer f.routeMu.RUnlock()
	return int(f.table[at][dst])
}

// fail records the run's first fault; the run stops at the next message.
func (f *Facility) fail(err error) {
	if f.runErr == nil {
		f.runErr = err
	}
}

// post queues m at node at's switch.
func (f *Facility) post(at int, m message) {
	if f.Messages.Add(1) > maxMessages {
		f.fail(fmt.Errorf("emulator: message budget exhausted"))
		return
	}
	m.at = at
	f.queue.Push(m)
}

// Detour returns the hops a completed run took beyond each message's
// shortest route: zero on an intact cube, the re-routing cost on a
// damaged one.
func (f *Facility) Detour() uint64 { return f.Hops.Load() - f.shortest }

// homePE maps a tag onto the current run's node set.
func (f *Facility) homePE(t token.Tag) int {
	return f.runNodes[t.HomePE(len(f.runNodes))]
}

// homeModule maps a structure address onto its owning node.
func (f *Facility) homeModule(addr uint32) int {
	return f.runNodes[int(addr)%len(f.runNodes)]
}
