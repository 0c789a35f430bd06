package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/istructure"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/token"
)

// element is the E4 production expression: deliberately non-trivial so
// overlapping production with consumption is worth something.
const e4Element = "i * i * i % 97 + i * 3 + 1"

// e4Expected computes the checksum the MiniID programs must produce.
func e4Expected(n int64) int64 {
	var s int64
	for i := int64(0); i < n; i++ {
		s += i*i*i%97 + i*3 + 1
	}
	return s
}

// gating selects the synchronization discipline between the producer and
// consumer loops of the E4 program.
type gating int

const (
	// gateBarrier gates every consumer on the completion of every
	// producer: the paper's "simpleminded transfer of control" — the
	// entire array written before the consumer begins.
	gateBarrier gating = iota
	// gateChunk gates each consumer on its own chunk's producer — the
	// paper's per-row/per-column compromise.
	gateChunk
	// gateElement uses no control gating at all: reads synchronize
	// against writes element-by-element through I-structure presence
	// bits.
	gateElement
)

// e4Src builds the E4 program: k producer loops each filling one chunk of
// the array (the production structure is identical across disciplines),
// and k consumer loops whose start is gated per the discipline. When
// scrambled, producer j writes positions congruent to j mod k in a
// strided order instead of a contiguous chunk — the paper's "case where
// the elements are not produced in a regular (i.e., row order or column
// order) way", which defeats chunk-aligned gating.
func e4Src(k int, g gating, scrambled bool) string {
	var b strings.Builder
	b.WriteString("def main(n) =\n  { a = array(n);\n    c = n / " + fmt.Sprint(k) + ";\n")
	for j := 0; j < k; j++ {
		if scrambled {
			// Producer j writes the residue class j (mod k) and carries a
			// per-producer delay loop, so production both interleaves
			// positions and skews in time — maximally irregular.
			fmt.Fprintf(&b, `    p%d = (initial z <- 0
           for q from 0 to c - 1 do
             a[q * %d + %d] <- { i = q * %d + %d;
                                 d = (initial w <- 0
                                      for t from 1 to %d do
                                        new w <- w + 1
                                      return w);
                                 %s + d * 0 };
             new z <- z
           return 0);
`, j, k, j, k, j, j*6, e4Element)
		} else {
			fmt.Fprintf(&b, `    p%d = (initial z <- 0
           for i from %d * c to %d * c - 1 do
             a[i] <- %s;
             new z <- z
           return 0);
`, j, j, j+1, e4Element)
		}
	}
	switch g {
	case gateBarrier:
		b.WriteString("    all = p0")
		for j := 1; j < k; j++ {
			fmt.Fprintf(&b, " + p%d", j)
		}
		b.WriteString(";\n")
		for j := 0; j < k; j++ {
			fmt.Fprintf(&b, "    b%d = if all == 0 then a else a;\n", j)
		}
	case gateChunk:
		for j := 0; j < k; j++ {
			fmt.Fprintf(&b, "    b%d = if p%d == 0 then a else a;\n", j, j)
		}
	case gateElement:
		for j := 0; j < k; j++ {
			fmt.Fprintf(&b, "    b%d = a;\n", j)
		}
	}
	for j := 0; j < k; j++ {
		fmt.Fprintf(&b, `    s%d = (initial s <- 0
           for i from %d * c to %d * c - 1 do
             new s <- s + b%d[i]
           return s);
`, j, j, j+1, j)
	}
	b.WriteString("    s0")
	for j := 1; j < k; j++ {
		fmt.Fprintf(&b, " + s%d", j)
	}
	if g == gateElement {
		// consume the producer results without delaying anything
		b.WriteString(" + 0 * (p0")
		for j := 1; j < k; j++ {
			fmt.Fprintf(&b, " + p%d", j)
		}
		b.WriteString(")")
	}
	b.WriteString(" };\n")
	return b.String()
}

// E4ReadBeforeWrite reproduces Issue 2 and Figure 2-1: producer/consumer
// sharing of a data structure under four disciplines — whole-structure
// barrier, per-chunk barriers, I-structure per-element deferral, and
// HEP-style full/empty busy-waiting.
func E4ReadBeforeWrite(opt Options) Result {
	r := Result{
		ID:     "E4",
		Title:  "Read-before-write synchronization disciplines",
		Anchor: "Issue 2 (Section 1.1), Section 2.1, Figure 2-1",
		Claim:  "I-structures synchronize producers and consumers per element with no loss of parallelism; barriers forfeit overlap; busy-waiting wastes operations",
	}
	n := int64(128)
	if opt.Quick {
		n = 48
	}
	want := e4Expected(n)

	runTTDA := func(src string) (cycles uint64, deferred uint64, err error) {
		prog, err := id.Compile(src)
		if err != nil {
			return 0, 0, err
		}
		m := core.NewMachine(core.Config{PEs: 8, Shards: opt.Shards}, prog)
		res, err := m.Run(100_000_000, token.Int(n))
		if err != nil {
			return 0, 0, err
		}
		if res[0].I != want {
			return 0, 0, fmt.Errorf("E4: checksum %s, want %d", res[0], want)
		}
		s := m.Summarize()
		return s.Cycles, s.DeferredReads, nil
	}

	tb := metrics.NewTable("E4: producer/consumer of a "+fmt.Sprint(n)+"-element structure on an 8-PE TTDA (4 producer chunks in every case)",
		"discipline", "cycles", "deferred reads", "vs barrier")
	type row struct {
		name string
		src  string
	}
	rows := []row{
		{"whole-array barrier", e4Src(4, gateBarrier, false)},
		{"per-chunk barriers", e4Src(4, gateChunk, false)},
		{"I-structure per-element", e4Src(4, gateElement, false)},
	}
	var barrierCycles uint64
	var overlapCycles, overlapDeferred uint64
	for _, rw := range rows {
		cycles, deferred, err := runTTDA(rw.src)
		if err != nil {
			r.Err = fmt.Errorf("%s: %w", rw.name, err)
			return r
		}
		if rw.name == "whole-array barrier" {
			barrierCycles = cycles
		}
		if rw.name == "I-structure per-element" {
			overlapCycles, overlapDeferred = cycles, deferred
		}
		tb.AddRow(rw.name, cycles, deferred, fmt.Sprintf("%.2fx", float64(barrierCycles)/float64(cycles)))
	}
	r.Tables = append(r.Tables, tb)

	// The paper's harder case: "consider the case where the elements are
	// not produced in a regular (i.e., row order or column order) way."
	// Producers now write strided residue classes at skewed speeds, so no
	// chunk gate corresponds to production order. The "deferred reads"
	// column is the decisive one: every deferred read under a gating
	// discipline is a read its synchronization FAILED to cover — answered
	// correctly here only because I-structure presence bits backstop it.
	// On a von Neumann machine without presence bits, each one is a wrong
	// answer. Only per-element synchronization is honest about needing no
	// gate at all.
	tb3 := metrics.NewTable("E4: irregular (strided, time-skewed) production — control-transfer gates stop working",
		"discipline", "cycles", "deferred reads", "what the deferrals mean")
	type row3 struct {
		name, src, meaning string
	}
	for _, rw := range []row3{
		{"whole-array barrier", e4Src(4, gateBarrier, true), "gate leaked: in-flight stores outrun it"},
		{"per-chunk barriers (misaligned)", e4Src(4, gateChunk, true), "gate leaked: wrong answers on a vN machine"},
		{"I-structure per-element", e4Src(4, gateElement, true), "the mechanism working as designed"},
	} {
		cycles, deferred, err := runTTDA(rw.src)
		if err != nil {
			r.Err = fmt.Errorf("%s: %w", rw.name, err)
			return r
		}
		tb3.AddRow(rw.name, cycles, deferred, rw.meaning)
	}
	r.Tables = append(r.Tables, tb3)

	// Deferral vs busy-waiting at the storage controller: a producer that
	// writes one element every `gap` cycles against a consumer that asked
	// for everything up front.
	gap := 8
	nn := int(n)
	isOps, hepOps := deferVsPoll(nn, gap)
	tb2 := metrics.NewTable(
		fmt.Sprintf("E4: controller operations, producer gap %d cycles, %d elements", gap, nn),
		"memory type", "controller ops", "wasted ops")
	tb2.AddRow("I-structure (deferred list)", isOps, 0)
	tb2.AddRow("HEP full/empty (busy-wait)", hepOps, hepOps-isOps)
	r.Tables = append(r.Tables, tb2)

	r.Finding = fmt.Sprintf(
		"per-element I-structure sync runs %.2fx faster than the whole-array barrier (%d deferred reads did the synchronization); busy-waiting costs %.1fx the controller operations of deferral",
		float64(barrierCycles)/float64(overlapCycles), overlapDeferred, float64(hepOps)/float64(isOps))
	return r
}

// deferVsPoll drives an I-structure module and a HEP module with the same
// eager-consumer / slow-producer schedule and reports total controller
// operations each performed.
func deferVsPoll(n, gap int) (isOps, hepOps uint64) {
	// I-structure: n reads arrive first and defer; writes trickle in.
	im := istructure.New(istructure.Config{Size: uint32(n), Respond: func(istructure.Response) {}})
	for i := 0; i < n; i++ {
		im.Enqueue(istructure.Request{Op: istructure.OpRead, Addr: uint32(i), ReplyTo: i})
	}
	limit := sim.Cycle(n*gap + 10*n)
	// The producer trickle is a plain (non-event-aware) component, so the
	// engine steps every cycle exhaustively — the schedule is open-loop.
	producer := func(enqueue func(istructure.Request)) sim.ComponentFunc {
		return func(now sim.Cycle) {
			c := int(now)
			if c%gap == 0 && c/gap < n {
				enqueue(istructure.Request{Op: istructure.OpWrite, Addr: uint32(c / gap), Value: 1})
			}
		}
	}
	never := func() bool { return false }
	ieng := sim.NewEngine()
	ieng.Register(producer(func(r istructure.Request) { im.Enqueue(r) }))
	ieng.Register(im)
	ieng.Run(never, limit)
	isOps = im.Stats().Reads.Value() + im.Stats().Writes.Value()

	// HEP: each NACKed read is reissued immediately — busy waiting.
	var hm *istructure.HEPModule
	hm = istructure.NewHEP(0, uint32(n), 1, func(resp istructure.HEPResponse) {
		if !resp.OK {
			hm.Enqueue(istructure.Request{Op: istructure.OpRead, Addr: resp.Addr, ReplyTo: resp.ReplyTo})
		}
	})
	for i := 0; i < n; i++ {
		hm.Enqueue(istructure.Request{Op: istructure.OpRead, Addr: uint32(i), ReplyTo: i})
	}
	heng := sim.NewEngine()
	heng.Register(producer(func(r istructure.Request) { hm.Enqueue(r) }))
	heng.Register(hm)
	heng.Run(never, limit)
	hepOps = hm.Stats().Reads.Value() + hm.Stats().Writes.Value()
	return isOps, hepOps
}
