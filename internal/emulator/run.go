package emulator

import (
	"fmt"
	"sync"

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

	entry := f.prog.Entry()
	if len(args) != len(entry.Entries) {
		return nil, fmt.Errorf("emulator: program %q wants %d arguments, got %d",
			f.prog.Name, len(entry.Entries), len(args))
	}
	if err := f.prog.Validate(); err != nil {
		return nil, err
	}

	// Inject the argument tokens before any node runs.
	for j, v := range args {
		act := token.ActivityName{Context: 0, CodeBlock: uint16(entry.ID), Statement: entry.Entries[j], Initiation: 1}
		t := token.Token{
			Class: token.Normal,
			Tag:   token.Tag{Activity: act},
			NT:    entry.Instr(entry.Entries[j]).NT,
			Port:  0,
			Value: v,
		}
		t.PE = f.homePE(t.Tag)
		f.post(t.PE, message{dst: t.PE, tok: t})
	}

	var wg sync.WaitGroup
	for _, nd := range f.nodes {
		wg.Add(1)
		nd := nd
		go func() {
			defer wg.Done()
			nd.loop()
		}()
	}
	<-f.done

	// Shut the modules down and wait for them.
	for _, nd := range f.nodes {
		nd.mu.Lock()
		nd.stop = true
		nd.mu.Unlock()
		nd.cond.Broadcast()
	}
	wg.Wait()

	f.resMu.Lock()
	err := f.runErr
	results := f.results
	f.resMu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := f.checkClean(); err != nil {
		return nil, err
	}
	return results, nil
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
