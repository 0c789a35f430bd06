package cache

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simtest"
)

// NextEvent honesty for the coherence models: a random preloaded workload
// must produce identical cycle counts and statistics whether the system is
// stepped exhaustively every cycle (sim.Scheduler.Run) or driven by the
// event-driven engine (sim.Engine.Run). The workload is queued up front so
// both runs see exactly the same request stream.

// crowdedAddr draws a word address from the first nsets sets, ntags blocks
// to a set. Blocks sets×blockWords words apart share a set, so traffic over
// more tags than ways evicts at the fixed geometry.
func crowdedAddr(rng *sim.RNG, nsets, ntags int) uint32 {
	tag, set, word := rng.Intn(ntags), rng.Intn(nsets), rng.Intn(blockWords)
	return uint32((tag*sets+set)*blockWords + word)
}

type cacheOutcome struct {
	elapsed  sim.Cycle
	ok       bool
	hits     uint64
	misses   uint64
	upgrades uint64
	invals   uint64
	wbacks   uint64
	sum      int64
}

type accessStream struct {
	cpu []int
	acc []Access
}

func randomStream(rng *sim.RNG, cpus, n int) accessStream {
	var st accessStream
	for i := 0; i < n; i++ {
		st.cpu = append(st.cpu, rng.Intn(cpus))
		st.acc = append(st.acc, Access{
			Addr:  crowdedAddr(rng, 2, 5),
			Write: rng.Bool(0.4),
			Value: int64(rng.Intn(1000)),
		})
	}
	return st
}

func statsOutcome(elapsed sim.Cycle, ok bool, cpus int, stats func(int) *CacheStats, sum int64) cacheOutcome {
	o := cacheOutcome{elapsed: elapsed, ok: ok, sum: sum}
	for i := 0; i < cpus; i++ {
		s := stats(i)
		o.hits += s.Hits.Value()
		o.misses += s.Misses.Value()
		o.upgrades += s.Upgrades.Value()
		o.invals += s.Invalidations.Value()
		o.wbacks += s.Writebacks.Value()
	}
	return o
}

func runSnoopyOnce(st accessStream, cpus int, evented bool) (cacheOutcome, uint64, float64) {
	s := NewSystem(cpus)
	var sum int64
	for i := range st.acc {
		a := st.acc[i]
		a.Done = func(v int64) { sum = sum*31 + v }
		s.Request(st.cpu[i], a)
	}
	done := func() bool { return !s.Pending() }
	var elapsed sim.Cycle
	var ok bool
	if evented {
		eng := sim.NewEngine()
		eng.Register(s)
		elapsed, ok = eng.Run(done, 1_000_000)
	} else {
		sch := sim.NewScheduler()
		sch.Register(s)
		elapsed, ok = sch.Run(done, 1_000_000)
	}
	o := statsOutcome(elapsed, ok, cpus, s.Stats, sum)
	return o, s.BusTransactions.Value(), s.BusBusy.Fraction()
}

func runDirectoryOnce(st accessStream, cpus int, netLat sim.Cycle, evented bool) (cacheOutcome, uint64, int64, float64) {
	s := NewDirectorySystem(cpus, netLat)
	var sum int64
	for i := range st.acc {
		a := st.acc[i]
		a.Done = func(v int64) { sum = sum*31 + v }
		s.Request(st.cpu[i], a)
	}
	done := func() bool { return !s.Pending() }
	var elapsed sim.Cycle
	var ok bool
	if evented {
		eng := sim.NewEngine()
		eng.Register(s)
		elapsed, ok = eng.Run(done, 1_000_000)
	} else {
		sch := sim.NewScheduler()
		sch.Register(s)
		elapsed, ok = sch.Run(done, 1_000_000)
	}
	o := statsOutcome(elapsed, ok, cpus, s.Stats, sum)
	return o, s.DirOps.Value(), s.DirQueueLen.Max(), s.DirQueueLen.Mean()
}

// runSnoopySkipping is runSnoopyOnce under exhaustive stepping with the
// system wrapped in simtest.IdleSkipper: Steps its own NextEvent declares
// idle are suppressed, which must not change any observable.
func runSnoopySkipping(st accessStream, cpus int) (cacheOutcome, uint64, float64, uint64) {
	s := NewSystem(cpus)
	var sum int64
	for i := range st.acc {
		a := st.acc[i]
		a.Done = func(v int64) { sum = sum*31 + v }
		s.Request(st.cpu[i], a)
	}
	skip := simtest.NewIdleSkipper(s)
	sch := sim.NewScheduler()
	sch.Register(skip)
	elapsed, ok := sch.Run(func() bool { return !s.Pending() }, 1_000_000)
	skip.Settle(sch.Now())
	o := statsOutcome(elapsed, ok, cpus, s.Stats, sum)
	return o, s.BusTransactions.Value(), s.BusBusy.Fraction(), skip.Skipped
}

// runDirectorySkipping is the directory-protocol variant.
func runDirectorySkipping(st accessStream, cpus int, netLat sim.Cycle) (cacheOutcome, uint64, int64, float64, uint64) {
	s := NewDirectorySystem(cpus, netLat)
	var sum int64
	for i := range st.acc {
		a := st.acc[i]
		a.Done = func(v int64) { sum = sum*31 + v }
		s.Request(st.cpu[i], a)
	}
	skip := simtest.NewIdleSkipper(s)
	sch := sim.NewScheduler()
	sch.Register(skip)
	elapsed, ok := sch.Run(func() bool { return !s.Pending() }, 1_000_000)
	skip.Settle(sch.Now())
	o := statsOutcome(elapsed, ok, cpus, s.Stats, sum)
	return o, s.DirOps.Value(), s.DirQueueLen.Max(), s.DirQueueLen.Mean(), skip.Skipped
}

// TestSnoopyIdleStepIsANoOp pins "NextEvent(now) > now implies Step(now)
// is a no-op" for the snoopy system on random workloads.
func TestSnoopyIdleStepIsANoOp(t *testing.T) {
	var totalSkipped uint64
	for seed := uint64(0); seed < 20; seed++ {
		rng := sim.NewRNG(0x1d1e + seed)
		cpus := 1 + rng.Intn(4)
		st := randomStream(rng, cpus, 30+rng.Intn(80))
		exOut, exBus, exFrac := runSnoopyOnce(st, cpus, false)
		skOut, skBus, skFrac, skipped := runSnoopySkipping(st, cpus)
		if !exOut.ok {
			t.Fatalf("seed %d: exhaustive run hit the cycle limit", seed)
		}
		if exOut.wbacks == 0 {
			t.Fatalf("seed %d: no writeback, so no dirty line was ever evicted or downgraded", seed)
		}
		if exOut != skOut || exBus != skBus || exFrac != skFrac {
			t.Errorf("seed %d (cpus=%d): an idle snoopy Step was not a no-op\nexhaustive: %+v bus=%d frac=%v\nskipping:   %+v bus=%d frac=%v",
				seed, cpus, exOut, exBus, exFrac, skOut, skBus, skFrac)
		}
		totalSkipped += skipped
	}
	if totalSkipped == 0 {
		t.Fatal("no Step was ever suppressed: the property was tested vacuously")
	}
}

// TestDirectoryIdleStepIsANoOp is the directory-protocol variant, where
// network latency opens real idle gaps between request and response.
func TestDirectoryIdleStepIsANoOp(t *testing.T) {
	var totalSkipped uint64
	for seed := uint64(0); seed < 20; seed++ {
		rng := sim.NewRNG(0x1d1f + seed)
		cpus := 2 + rng.Intn(3)
		netLat := sim.Cycle(1 + rng.Intn(8))
		st := randomStream(rng, cpus, 30+rng.Intn(80))
		exOut, exOps, exMax, exMean := runDirectoryOnce(st, cpus, netLat, false)
		skOut, skOps, skMax, skMean, skipped := runDirectorySkipping(st, cpus, netLat)
		if !exOut.ok {
			t.Fatalf("seed %d: exhaustive run hit the cycle limit", seed)
		}
		if exOut.wbacks == 0 {
			t.Fatalf("seed %d: no writeback, so no dirty line was ever evicted or downgraded", seed)
		}
		if exOut != skOut || exOps != skOps || exMax != skMax || exMean != skMean {
			t.Errorf("seed %d (cpus=%d netLat=%d): an idle directory Step was not a no-op\nexhaustive: %+v ops=%d qmax=%d qmean=%v\nskipping:   %+v ops=%d qmax=%d qmean=%v",
				seed, cpus, netLat, exOut, exOps, exMax, exMean, skOut, skOps, skMax, skMean)
		}
		totalSkipped += skipped
	}
	if totalSkipped == 0 {
		t.Fatal("no Step was ever suppressed: the property was tested vacuously")
	}
}

func TestSnoopyEngineMatchesExhaustive(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := sim.NewRNG(0xcafe + seed)
		cpus := 1 + rng.Intn(4)
		st := randomStream(rng, cpus, 30+rng.Intn(80))
		exOut, exBus, exFrac := runSnoopyOnce(st, cpus, false)
		evOut, evBus, evFrac := runSnoopyOnce(st, cpus, true)
		if !exOut.ok {
			t.Fatalf("seed %d: exhaustive run hit the cycle limit", seed)
		}
		if exOut.wbacks == 0 {
			t.Fatalf("seed %d: no writeback, so no dirty line was ever evicted or downgraded", seed)
		}
		if exOut != evOut || exBus != evBus || exFrac != evFrac {
			t.Errorf("seed %d (cpus=%d): evented snoopy run diverged\nexhaustive: %+v bus=%d frac=%v\nevented:    %+v bus=%d frac=%v",
				seed, cpus, exOut, exBus, exFrac, evOut, evBus, evFrac)
		}
	}
}

func TestDirectoryEngineMatchesExhaustive(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := sim.NewRNG(0xd1c7 + seed)
		cpus := 2 + rng.Intn(3)
		netLat := sim.Cycle(1 + rng.Intn(8))
		st := randomStream(rng, cpus, 30+rng.Intn(80))
		exOut, exOps, exMax, exMean := runDirectoryOnce(st, cpus, netLat, false)
		evOut, evOps, evMax, evMean := runDirectoryOnce(st, cpus, netLat, true)
		if !exOut.ok {
			t.Fatalf("seed %d: exhaustive run hit the cycle limit", seed)
		}
		if exOut.wbacks == 0 {
			t.Fatalf("seed %d: no writeback, so no dirty line was ever evicted or downgraded", seed)
		}
		if exOut != evOut || exOps != evOps || exMax != evMax || exMean != evMean {
			t.Errorf("seed %d (cpus=%d netLat=%d): evented directory run diverged\nexhaustive: %+v ops=%d qmax=%d qmean=%v\nevented:    %+v ops=%d qmax=%d qmean=%v",
				seed, cpus, netLat, exOut, exOps, exMax, exMean, evOut, evOps, evMax, evMean)
		}
	}
}
