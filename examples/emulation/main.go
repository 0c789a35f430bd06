// The Section 3 emulation facility in action: a 32-node hypercube of
// PE+switch modules, emulated on one host thread, runs a compiled dataflow
// program; we then injure the cube (dead links), let table-based routing
// steer around the damage, and finally split the facility into two
// independent sub-machines — the three capabilities the paper designed the
// testbed around.
//
//	go run ./examples/emulation
package main

import (
	"fmt"
	"log"

	"repro/internal/emulator"
	"repro/internal/id"
	"repro/internal/token"
	"repro/internal/workload"
)

func main() {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		log.Fatal(err)
	}
	const n = 8
	want := workload.MatMulChecksum(n)

	// Healthy 32-node cube.
	f := emulator.New(emulator.Config{Dim: 5}, prog)
	res, err := f.Run(token.Int(n))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matmul(%d) on a healthy 5-cube:  %v (want %d)\n", n, res[0], want)
	fmt.Printf("  %d messages, %d forwarded hops, %d instructions fired\n",
		f.Messages.Load(), f.Hops.Load(), f.Fired.Load())

	busy := 0
	for i := 0; i < f.NumNodes(); i++ {
		if f.NodeProcessed(i) > 0 {
			busy++
		}
	}
	fmt.Printf("  %d of %d PE+switch modules did work\n\n", busy, f.NumNodes())

	// Fault injection: kill four links; BFS re-routing uses the cube's
	// redundancy ("fault recovery under the control of a microcode task").
	g := emulator.New(emulator.Config{Dim: 5}, prog)
	for _, fault := range [][2]int{{0, 0}, {7, 2}, {13, 1}, {22, 4}} {
		g.KillLink(fault[0], fault[1])
	}
	res, err = g.Run(token.Int(n))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same program with 4 dead links: %v — answer unchanged\n", res[0])
	fmt.Printf("  %d forwarded hops, %d of them detours beyond the shortest routes\n\n",
		g.Hops.Load(), g.Detour())

	// Static partitioning: two independent 16-node machines.
	sum, err := id.Compile(workload.SumLoopID)
	if err != nil {
		log.Fatal(err)
	}
	part := make([]int, 32)
	for i := range part {
		part[i] = i >> 4
	}
	for pid, arg := range []int64{1000, 2000} {
		pf := emulator.New(emulator.Config{Dim: 5}, sum)
		pf.Partition(part)
		pres, err := pf.RunPartition(pid, token.Int(arg))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("partition %d computed sum(1..%d) = %v on its own 16 nodes\n", pid, arg, pres[0])
	}
}
