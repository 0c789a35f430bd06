package main

import (
	"container/heap"
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host's speed changes while the benchmark runs. On the shared 2-vCPU
// virtual machine it was built on, the CPU time of one kernel pass moved
// by up to 60% within ten minutes as other guests loaded the shared cores,
// caches and memory. Every run therefore also times a fixed reference
// computation after each set-up and at the end of each window (a sweep
// iteration also within it), and scales that set-up's or window's timings
// by how fast the reference ran against refNominalMs.
// The reference is the benchmark's own code on the standard library only,
// so no change to the repository can make it faster or slower; it mixes
// the kinds of work the workloads do (allocation, pointer chasing, maps, an
// event queue, JSON, sorting and hashing). It runs on as many goroutines
// as the window kept busy: a sweep iteration runs on nproc workers, and
// two busy vCPUs slow each other down in a way one does not see. Over ten
// minutes of back-to-back windows, grouped into 25 s chunks, the chunks'
// medians spread by 10% for kernel passes and 11% for sweep iterations;
// divided by the reference, by 3.8% and 6.1% (sweep: 12% against a
// reference on one goroutine).

// refNominalMs is the reference's median CPU time per goroutine on the
// host the benchmark was calibrated on. A window whose reference takes
// longer ran on a slower host, and its timings are scaled down by the same
// ratio.
const refNominalMs = 60.0

// hostSampleEvery is how much CPU time a workload may spend between two
// host speed samples where it can stop to take one; the speed of a window
// is the mean of the samples taken in it. The host's speed moves by ±15%
// from one second to the next, so a sweep iteration of 3 s, sampled once
// at its end, read the wrong speed for much of it.
const hostSampleEvery = time.Second

// timeReference runs the reference once on each of threads goroutines at
// once and returns the CPU time per goroutine in ms, and the bytes it
// allocated, which a window timed across it leaves out. It first collects
// the workload's garbage, untimed, and the collector is off while the
// reference runs, so its time does not depend on the workload's heap: run
// straight after a sweep iteration, without the collection, it took 4%
// longer, sweeping the iteration's spans as it allocated.
func timeReference(threads int) (ms, allocBytes float64) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sums := make([]uint64, threads)
	c0 := cpuTime()
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = reference()
		}(i)
	}
	wg.Wait()
	ms = cpuMsSince(c0) / float64(threads)
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(old)
	for _, s := range sums {
		refSink += s
	}
	return ms, float64(after.TotalAlloc - before.TotalAlloc)
}

// hostSpeed is refNominalMs over a reference time: 1 on the calibration
// host, below 1 on a slower one. A CPU time times the speed reads as CPU
// time on the calibration host; a rate is divided by it.
func hostSpeed(refMs float64) float64 {
	return refNominalMs / refMs
}

// refSink keeps the reference's results alive so the compiler cannot drop
// the work.
var refSink uint64

// reference returns a checksum of its work; each goroutine running it keeps
// its own, so they share no memory.
func reference() uint64 {
	return refPointers() + refEvents() + refEncoding()
}

type refNode struct {
	next *refNode
	v    [6]uint64
}

// refPointers builds a linked list indexed by a map and walks it.
func refPointers() uint64 {
	var sum uint64
	index := make(map[uint64]*refNode, 1<<14)
	var head *refNode
	x := uint64(88172645463325252)
	for i := 0; i < 30000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &refNode{next: head}
		n.v[0] = x
		head = n
		index[x&0xffff] = n
	}
	for r := 0; r < 20; r++ {
		for n := head; n != nil; n = n.next {
			sum += n.v[0]
			if q, ok := index[n.v[0]&0xffff]; ok {
				sum += q.v[0]
			}
		}
	}
	return sum
}

type refEvent struct {
	at uint64
	id int
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refEvents runs a small discrete-event loop: pop the earliest event,
// update a map of component states, schedule a new event.
func refEvents() uint64 {
	q := &refQueue{}
	state := make(map[int]int, 4096)
	x := uint64(7)
	for i := 0; i < 512; i++ {
		heap.Push(q, &refEvent{at: uint64(i), id: i})
	}
	for step := 0; step < 100000; step++ {
		e := heap.Pop(q).(*refEvent)
		x = x*6364136223846793005 + 1442695040888963407
		state[e.id] += int(x >> 60)
		heap.Push(q, &refEvent{at: e.at + 1 + x>>61, id: int(x>>52) & 4095})
	}
	return uint64(len(state))
}

type refRecord struct {
	Name  string            `json:"name"`
	Vals  []int             `json:"vals"`
	Attrs map[string]string `json:"attrs"`
}

// refEncoding round-trips records through JSON, sorts and hashes them.
func refEncoding() uint64 {
	var sum uint64
	recs := make([]refRecord, 400)
	for i := range recs {
		recs[i] = refRecord{Name: "r" + strconv.Itoa(i*7919%1000), Vals: []int{i, i * 3, i * 7, i * 11}, Attrs: map[string]string{"a": strconv.Itoa(i), "b": "x"}}
	}
	for r := 0; r < 8; r++ {
		b, _ := json.Marshal(recs) // plain structs always encode
		var back []refRecord
		_ = json.Unmarshal(b, &back) // decodes what Marshal just wrote
		sort.Slice(back, func(i, j int) bool { return back[i].Name < back[j].Name })
		digest := sha256.Sum256(b)
		counts := map[string]int{}
		for _, rec := range back {
			counts[rec.Name] += len(rec.Vals)
		}
		sum += uint64(digest[0]) + uint64(len(counts))
	}
	return sum
}
