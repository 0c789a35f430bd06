// Package emulator implements the second prong of the paper's Figure 3-1
// development plan: the multiprocessor emulation facility. Where
// internal/core models the tagged-token machine with detailed timing, the
// emulator gives up internal timings to run big programs fast — exactly
// the trade the paper describes — by mapping each processing element (with
// its integrated packet-switch module) onto a goroutine and each hypercube
// link onto message passing between nodes.
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

// maxDim bounds the cube: beyond 2^20 nodes the goroutine-per-node model
// is certainly a configuration mistake.
const maxDim = 20

// maxMessages bounds total message traffic as a runaway guard.
const maxMessages = 500_000_000

// message is one packet between switch modules.
type message struct {
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

	// routing: next hop tables, guarded for mid-run fault injection
	routeMu sync.RWMutex
	alive   [][]bool
	table   [][]int16 // table[node][dst] = next node (or -1)
	part    []int

	// context manager (the facility's "microcode task")
	ctxMu   sync.Mutex
	nextCtx token.Context
	ctxs    map[token.Context]graph.Invocation

	// I-structure allocation
	allocMu  sync.Mutex
	nextAddr uint32

	// termination detection: units = queued messages not yet fully
	// processed; when it falls to zero the machine is quiescent
	units    atomic.Int64
	done     chan struct{}
	doneOnce sync.Once

	// results and faults
	resMu   sync.Mutex
	results []token.Value
	runErr  error

	// statistics: Messages counts every message posted, Hops every
	// forwarding step between switch modules
	Messages atomic.Uint64
	Hops     atomic.Uint64
	Fired    atomic.Uint64
}

// settleCtxLocked stores rec as context u's record, or reclaims it once
// Done; the caller holds ctxMu.
func (f *Facility) settleCtxLocked(u token.Context, rec graph.Invocation) {
	if rec.Done(f.cg) {
		delete(f.ctxs, u)
	} else {
		f.ctxs[u] = rec
	}
}

// node is one PE plus its integrated switch module.
type node struct {
	f  *Facility
	id int

	mu    sync.Mutex
	cond  *sync.Cond
	queue sim.FIFO[message] // switch queue: a ring, refilled in place as it drains
	stop  bool

	// dataflow interpretation state (touched only by this node's
	// goroutine): the waiting-matching store and the I-structure cells
	// this node owns
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
		done:       make(chan struct{}),
		alive:      make([][]bool, n),
		part:       make([]int, n),
	}
	for i := 0; i < n; i++ {
		f.alive[i] = make([]bool, cfg.Dim)
		for k := range f.alive[i] {
			f.alive[i][k] = true
		}
		nd := &node{f: f, id: i, cells: map[uint32]*cell{}}
		nd.cond = sync.NewCond(&nd.mu)
		f.nodes = append(f.nodes, nd)
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
// is meaningful for runs started with RunOnPartition.
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

// fail records the first fault and wakes everyone up.
func (f *Facility) fail(err error) {
	f.resMu.Lock()
	if f.runErr == nil {
		f.runErr = err
	}
	f.resMu.Unlock()
	f.finish()
}

func (f *Facility) finish() {
	f.doneOnce.Do(func() { close(f.done) })
}

// post enqueues a message at a node's switch, accounting a unit of work.
func (f *Facility) post(at int, m message) {
	if f.Messages.Add(1) > maxMessages {
		f.fail(fmt.Errorf("emulator: message budget exhausted"))
		return
	}
	f.units.Add(1)
	nd := f.nodes[at]
	nd.mu.Lock()
	nd.queue.Push(m)
	nd.mu.Unlock()
	nd.cond.Signal()
}

// homePE maps a tag onto the current run's node set.
func (f *Facility) homePE(t token.Tag) int {
	return f.runNodes[t.HomePE(len(f.runNodes))]
}

// allocTop is the first structure address not yet allocated, read under
// the allocator's lock: a node checking a FETCH or STORE address races
// with allocations on other nodes.
func (f *Facility) allocTop() uint32 {
	f.allocMu.Lock()
	defer f.allocMu.Unlock()
	return f.nextAddr
}

// homeModule maps a structure address onto its owning node.
func (f *Facility) homeModule(addr uint32) int {
	return f.runNodes[int(addr)%len(f.runNodes)]
}
