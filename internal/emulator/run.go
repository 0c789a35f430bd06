package emulator

import (
	"fmt"

	"repro/internal/token"
)

// Run executes the program across the whole facility and returns its
// results. A Facility runs one program once; build a new one to run again
// (the loader reloads the real facility the same way).
func (f *Facility) Run(args ...token.Value) ([]token.Value, error) {
	return f.RunPartition(0, args...)
}

// RunPartition executes the program using only the nodes of the given
// partition — the paper's statically partitioned sub-machine. With the
// default single partition this is the whole cube.
func (f *Facility) RunPartition(pid int, args ...token.Value) ([]token.Value, error) {
	f.routeMu.RLock()
	var runNodes []int
	for i, p := range f.part {
		if p == pid {
			runNodes = append(runNodes, i)
		}
	}
	f.routeMu.RUnlock()
	if len(runNodes) == 0 {
		return nil, fmt.Errorf("emulator: partition %d has no nodes", pid)
	}
	f.runNodes = runNodes

	if f.compileErr != nil {
		return nil, f.compileErr
	}
	entry := f.cg.Block(0)
	if len(args) != len(entry.Entries) {
		return nil, fmt.Errorf("emulator: program %q wants %d arguments, got %d",
			f.cg.Prog.Name, len(entry.Entries), len(args))
	}

	// Inject the argument tokens, then handle every message in posting
	// order, each at the switch it waits at, until none is left.
	for j, v := range args {
		act := token.ActivityName{Context: 0, CodeBlock: uint16(entry.ID), Statement: entry.Entries[j], Initiation: 1}
		t := token.Token{
			Class: token.Normal,
			Tag:   token.Tag{Activity: act},
			NT:    entry.EntryNT[j],
			Port:  0,
			Value: v,
		}
		t.PE = f.homePE(t.Tag)
		f.post(t.PE, message{dst: t.PE, tok: t})
	}
	for f.runErr == nil && !f.queue.Empty() {
		m := f.queue.Pop() // Pop clears the slot: a message can hold an *isRequest
		f.nodes[m.at].handle(m)
	}
	if f.runErr != nil {
		return nil, f.runErr
	}
	if err := f.checkClean(); err != nil {
		return nil, err
	}
	return f.results, nil
}

// checkClean distinguishes completion from deadlock after quiescence.
func (f *Facility) checkClean() error {
	stranded, deferred := 0, 0
	for _, nd := range f.nodes {
		stranded += nd.waiting.Len()
		for _, c := range nd.cells {
			deferred += len(c.waiters)
		}
	}
	if stranded != 0 {
		return fmt.Errorf("emulator: %d unmatched tokens stranded in waiting sections", stranded)
	}
	if deferred != 0 {
		return fmt.Errorf("emulator: deadlock: %d deferred reads never satisfied", deferred)
	}
	return nil
}

// NodeProcessed returns node i's processed-message count (load balance).
func (f *Facility) NodeProcessed(i int) uint64 { return f.nodes[i].processed }

// NumNodes returns the facility size.
func (f *Facility) NumNodes() int { return f.n }
