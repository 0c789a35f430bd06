package graph

import (
	"math/rand"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/token"
)

// randomActivity draws a key from a small space so collisions, reuse, and
// delete-reinsert cycles are frequent.
func randomActivity(rng *rand.Rand) token.ActivityName {
	return token.ActivityName{
		Context:    token.Context(rng.Intn(8)),
		CodeBlock:  uint16(rng.Intn(4)),
		Statement:  uint16(rng.Intn(16)),
		Initiation: uint32(rng.Intn(4)),
	}
}

// parkedOp is a resident entry as the reference model sees it.
type parkedOp struct {
	port uint8
	v    token.Value
}

// contents collects the table through Each, failing on a repeated key.
func contents(t *testing.T, tab *MatchTable) map[token.ActivityName]parkedOp {
	t.Helper()
	got := map[token.ActivityName]parkedOp{}
	tab.Each(func(act token.ActivityName, port uint8, v token.Value) {
		if _, dup := got[act]; dup {
			t.Fatalf("Each yielded %v twice", act)
		}
		got[act] = parkedOp{port, v}
	})
	return got
}

// TestMatchTableAgainstMap drives the table and a reference map through
// the same random schedule of 200,000 tokens, checking every outcome, the
// pair each match returns, and Len after every operation.
func TestMatchTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tab MatchTable
	ref := map[token.ActivityName]parkedOp{}
	var dups int

	for op := 0; op < 200000; op++ {
		k := randomActivity(rng)
		port := uint8(rng.Intn(2))
		v := token.Int(int64(op))
		vals, out := tab.Match(k, port, v)
		w, resident := ref[k]
		switch {
		case !resident:
			if out != Parked {
				t.Fatalf("op %d: %v absent, outcome %d want Parked", op, k, out)
			}
			ref[k] = parkedOp{port, v}
		case w.port == port:
			if out != Duplicate {
				t.Fatalf("op %d: %v holds port %d, outcome %d want Duplicate", op, k, port, out)
			}
			dups++
		default:
			if out != Matched {
				t.Fatalf("op %d: %v holds port %d, outcome %d want Matched", op, k, w.port, out)
			}
			if vals[w.port] != w.v || vals[port] != v {
				t.Fatalf("op %d: %v matched %v, want port %d=%v and port %d=%v", op, k, vals, w.port, w.v, port, v)
			}
			delete(ref, k)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: Len=%d want %d", op, tab.Len(), len(ref))
		}
	}
	if dups == 0 {
		t.Fatal("schedule produced no duplicate tokens")
	}
	got := contents(t, &tab)
	if len(got) != len(ref) {
		t.Fatalf("Each yielded %d entries, want %d", len(got), len(ref))
	}
	for k, want := range ref {
		if got[k] != want {
			t.Fatalf("key %v: Each gave %+v want %+v", k, got[k], want)
		}
	}
}

// TestMatchTableBackwardShift exercises deletion inside a probe cluster:
// keys engineered (via brute force) to share a bucket must all remain
// reachable after any one of them is matched away.
func TestMatchTableBackwardShift(t *testing.T) {
	var probe MatchTable
	probe.init(matchTableMinBuckets)
	target := uint32(3)
	var cluster []token.ActivityName
	for i := uint32(0); len(cluster) < 5 && i < 1<<20; i++ {
		k := token.ActivityName{Context: token.Context(i), Statement: 7}
		if uint32(hashActivity(k))&probe.mask == target {
			cluster = append(cluster, k)
		}
	}
	if len(cluster) < 5 {
		t.Fatal("could not build a collision cluster")
	}
	for victim := 0; victim < len(cluster); victim++ {
		var tab MatchTable
		for i, k := range cluster {
			tab.Match(k, 0, token.Int(int64(i)))
		}
		if _, out := tab.Match(cluster[victim], 1, token.Nil()); out != Matched {
			t.Fatalf("victim %d: outcome %d want Matched", victim, out)
		}
		got := contents(t, &tab)
		for i, k := range cluster {
			e, ok := got[k]
			if i == victim {
				if ok {
					t.Fatalf("victim %d still present", victim)
				}
				continue
			}
			if !ok {
				t.Fatalf("removing %d lost key %d", victim, i)
			}
			vals, out := tab.Match(k, 1, token.Nil())
			if out != Matched {
				t.Fatalf("removing %d made key %d unreachable: outcome %d", victim, i, out)
			}
			if n, _ := vals[0].AsInt(); n != int64(i) || e.v != vals[0] {
				t.Fatalf("removing %d corrupted key %d: got %d", victim, i, n)
			}
		}
		if tab.Len() != 0 {
			t.Fatalf("victim %d: Len=%d after matching every key", victim, tab.Len())
		}
	}
}

// TestMatchTableSlabReuse checks that a match recycles its slab record
// instead of growing the slab, and that growth keeps resident entries
// intact.
func TestMatchTableSlabReuse(t *testing.T) {
	var tab MatchTable
	k := func(i int) token.ActivityName {
		return token.ActivityName{Context: token.Context(i), Initiation: 1}
	}
	for i := 0; i < 64; i++ {
		tab.Match(k(i), 0, token.Int(0))
		tab.Match(k(i), 1, token.Int(0))
	}
	if len(tab.slab) != 1 {
		t.Fatalf("slab grew to %d records for a live population of 1", len(tab.slab))
	}
	// Push through several growths and verify all bindings survive.
	for i := 0; i < 1000; i++ {
		tab.Match(k(i), 1, token.Int(int64(i)))
	}
	for i := 0; i < 1000; i++ {
		vals, out := tab.Match(k(i), 0, token.Nil())
		if out != Matched {
			t.Fatalf("key %d lost across growth: outcome %d", i, out)
		}
		if got, _ := vals[1].AsInt(); got != int64(i) {
			t.Fatalf("key %d: got %d after growth", i, got)
		}
	}
}

// TestMatchTableSteadyStateZeroAlloc pins the hot path's allocation
// count: once the table has held its peak population, parking a token
// and matching its partner allocates nothing.
func TestMatchTableSteadyStateZeroAlloc(t *testing.T) {
	var tab MatchTable
	acts := make([]token.ActivityName, 8)
	for i := range acts {
		acts[i] = token.ActivityName{Context: token.Context(i), Statement: 3, Initiation: 1}
	}
	cycle := func() {
		for _, a := range acts {
			tab.Match(a, 0, token.Int(1))
		}
		for _, a := range acts {
			tab.Match(a, 1, token.Int(2))
		}
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("steady park-then-match cycle allocates %.1f times", n)
	}
}

// TestMatchRecordLayout pins the size of the half-matched record the
// waiting store moves on every park and match. On 32-bit platforms
// int64 is 4-byte aligned.
func TestMatchRecordLayout(t *testing.T) {
	want := uintptr(56)
	if strconv.IntSize == 32 {
		want = 44
	}
	if got := unsafe.Sizeof(partial{}); got != want {
		t.Errorf("unsafe.Sizeof(partial) = %d, want %d", got, want)
	}
}
