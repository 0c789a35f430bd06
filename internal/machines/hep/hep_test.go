package hep

import (
	"testing"

	"repro/internal/vn"
)

// pipeline: context 0 produces values 1..n into a full/empty cell, context
// 1 consumes them and stores the sum. r1 = cell address, r5 = count.
const pipeline = `
prod:   beq  r5, r0, phalt
        addi r6, r6, 1
        prd  r6, r1        ; blocks (busy-waits) while the cell is full
        addi r5, r5, -1
        j    prod
phalt:  halt

cons:   beq  r5, r0, csave
        cns  r2, r1        ; blocks (busy-waits) while the cell is empty
        add  r3, r3, r2
        addi r5, r5, -1
        j    cons
csave:  st   r3, r8, 0
        halt
`

func build(t *testing.T, n int64) *Machine {
	t.Helper()
	prog, err := vn.Assemble(pipeline)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Processors: 1, ContextsPerCore: 2}, prog)
	producer := m.Core(0).Context(0)
	producer.SetReg(1, 100)
	producer.SetReg(5, vn.Word(n))
	consumer := m.Core(0).Context(1)
	consumer.SetPC(prog.Labels["cons"])
	consumer.SetReg(1, 100)
	consumer.SetReg(5, vn.Word(n))
	consumer.SetReg(8, 200)
	return m
}

func TestFullEmptyPipeline(t *testing.T) {
	const n = 50
	m := build(t, n)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Memory().Peek(200); got != n*(n+1)/2 {
		t.Fatalf("consumer summed %d, want %d", got, n*(n+1)/2)
	}
	if m.Memory().Full(100) {
		t.Fatal("cell should end empty: everything produced was consumed")
	}
}

func TestBusyWaitingBurnsBandwidth(t *testing.T) {
	// The paper's footnote: no deferred read list — unsatisfiable requests
	// busy-wait. Retries must show up, and they consume real service slots.
	const n = 50
	m := build(t, n)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	retries := m.Memory().Retries.Value()
	if retries == 0 {
		t.Fatal("a one-deep full/empty pipeline must retry")
	}
	served := m.Memory().Served.Value()
	// useful ops: n produces + n consumes + 1 final store
	useful := uint64(2*n + 1)
	if served != useful+retries {
		t.Fatalf("served (%d) must equal useful (%d) + retries (%d)", served, useful, retries)
	}
}

func TestSlowProducerInflatesRetries(t *testing.T) {
	// Delay the producer (extra ALU work per item): the consumer's
	// busy-waiting scales with the delay, unlike I-structure deferral
	// whose cost is one deferred entry regardless of the wait.
	src := `
prod:   beq  r5, r0, phalt
        addi r6, r6, 1
        add  r9, r9, r6    ; padding work
        add  r9, r9, r6
        add  r9, r9, r6
        add  r9, r9, r6
        add  r9, r9, r6
        add  r9, r9, r6
        add  r9, r9, r6
        add  r9, r9, r6
        prd  r6, r1
        addi r5, r5, -1
        j    prod
phalt:  halt
cons:   beq  r5, r0, chalt
        cns  r2, r1
        add  r3, r3, r2
        addi r5, r5, -1
        j    cons
chalt:  halt
`
	prog, err := vn.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	fast := build(t, 30)
	if _, err := fast.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	slow := New(Config{Processors: 1, ContextsPerCore: 2}, prog)
	slow.Core(0).Context(0).SetReg(1, 100)
	slow.Core(0).Context(0).SetReg(5, 30)
	slow.Core(0).Context(1).SetPC(prog.Labels["cons"])
	slow.Core(0).Context(1).SetReg(1, 100)
	slow.Core(0).Context(1).SetReg(5, 30)
	if _, err := slow.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if slow.Memory().Retries.Value() <= fast.Memory().Retries.Value() {
		t.Fatalf("slower producer should force more consumer retries: %d vs %d",
			slow.Memory().Retries.Value(), fast.Memory().Retries.Value())
	}
}

func TestManyContextsSharedCell(t *testing.T) {
	// 4 producers and 4 consumers on one cell: full/empty acts as a
	// 1-deep synchronized channel; totals must balance exactly.
	src := `
prod:   beq  r5, r0, phalt
        prd  r6, r1
        addi r5, r5, -1
        j    prod
phalt:  halt
cons:   beq  r5, r0, csave
        cns  r2, r1
        add  r3, r3, r2
        addi r5, r5, -1
        j    cons
csave:  st   r3, r8, 0
        halt
`
	prog, err := vn.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Processors: 1, ContextsPerCore: 8}, prog)
	const each = 20
	for i := 0; i < 4; i++ {
		p := m.Core(0).Context(i)
		p.SetReg(1, 100)
		p.SetReg(5, each)
		p.SetReg(6, vn.Word(i+1)) // each producer sends its id
		c := m.Core(0).Context(4 + i)
		c.SetPC(prog.Labels["cons"])
		c.SetReg(1, 100)
		c.SetReg(5, each)
		c.SetReg(8, vn.Word(200+i))
	}
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	var got vn.Word
	for i := 0; i < 4; i++ {
		got += m.Memory().Peek(uint32(200 + i))
	}
	want := vn.Word(each * (1 + 2 + 3 + 4))
	if got != want {
		t.Fatalf("consumed sum %d, want %d", got, want)
	}
}

func TestMultithreadingHidesWaits(t *testing.T) {
	// With many independent producer/consumer pairs on one core, the
	// processor stays busier than with a single pair: the HEP's pipeline
	// argument, limited by the shared memory's service rate.
	utilFor := func(pairs int) float64 {
		prog, err := vn.Assemble(pipeline)
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{Processors: 1, ContextsPerCore: 2 * pairs}, prog)
		for i := 0; i < pairs; i++ {
			cell := vn.Word(100 + i)
			p := m.Core(0).Context(2 * i)
			p.SetReg(1, cell)
			p.SetReg(5, 25)
			c := m.Core(0).Context(2*i + 1)
			c.SetPC(prog.Labels["cons"])
			c.SetReg(1, cell)
			c.SetReg(5, 25)
			c.SetReg(8, vn.Word(300+i))
		}
		if _, err := m.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Core(0).Stats().Utilization()
	}
	if u1, u4 := utilFor(1), utilFor(4); u4 <= u1 {
		t.Fatalf("more process pairs should raise utilization: 1 pair %v, 4 pairs %v", u1, u4)
	}
}

func TestRunHonorsLimit(t *testing.T) {
	// A consumer with no producer busy-waits forever; Run must report it.
	prog, err := vn.Assemble("cons: cns r2, r1\n j cons\n halt")
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Processors: 1, ContextsPerCore: 1}, prog)
	m.Core(0).Context(0).SetReg(1, 100)
	if _, err := m.Run(5000); err == nil {
		t.Fatal("endless busy-wait must hit the cycle limit")
	}
	if m.Memory().Retries.Value() == 0 {
		t.Fatal("the spin must be visible as retries")
	}
}
