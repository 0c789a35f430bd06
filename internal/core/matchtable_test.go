package core

import (
	"math/rand"
	"testing"

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

// removeKey removes k, which must be present, the way the matching section
// does: at the bucket lookupOrInsert found it in.
func removeKey(t *testing.T, tab *matchTable, k token.ActivityName) {
	t.Helper()
	b, _, inserted := tab.lookupOrInsert(k)
	if inserted {
		t.Fatalf("remove of absent key %v", k)
	}
	tab.removeAt(b)
}

// TestMatchTableAgainstMap drives the open-addressed table and a reference
// map through the same random insert/lookup/remove schedule.
func TestMatchTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tab matchTable
	ref := map[token.ActivityName][2]token.Value{}

	for op := 0; op < 200000; op++ {
		k := randomActivity(rng)
		switch {
		case rng.Intn(3) == 0: // remove (if present)
			if _, ok := ref[k]; ok {
				removeKey(t, &tab, k)
				delete(ref, k)
			} else if tab.lookup(k) != nil {
				t.Fatalf("op %d: table has %v, reference does not", op, k)
			}
		default: // upsert with a recognizable value
			v := token.Int(int64(op))
			if p := tab.lookup(k); p != nil {
				p.vals[0] = v
				e := ref[k]
				e[0] = v
				ref[k] = e
			} else {
				p := tab.insert(k)
				p.vals[0] = v
				ref[k] = [2]token.Value{v, {}}
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: Len=%d want %d", op, tab.Len(), len(ref))
		}
	}
	for k, want := range ref {
		p := tab.lookup(k)
		if p == nil {
			t.Fatalf("key %v missing after run", k)
		}
		if p.vals[0] != want[0] {
			t.Fatalf("key %v: value %v want %v", k, p.vals[0], want[0])
		}
	}
}

// TestMatchTableBackwardShift exercises deletion inside a probe cluster:
// keys engineered (via brute force) to share a bucket must all remain
// reachable after any one of them is removed.
func TestMatchTableBackwardShift(t *testing.T) {
	var tab matchTable
	tab.init(matchTableMinBuckets)
	target := uint32(3)
	var cluster []token.ActivityName
	for i := uint32(0); len(cluster) < 5 && i < 1<<20; i++ {
		k := token.ActivityName{Context: token.Context(i), Statement: 7}
		if uint32(hashActivity(k))&tab.mask == target {
			cluster = append(cluster, k)
		}
	}
	if len(cluster) < 5 {
		t.Fatal("could not build a collision cluster")
	}
	for victim := 0; victim < len(cluster); victim++ {
		var tab matchTable
		for i, k := range cluster {
			tab.insert(k).vals[0] = token.Int(int64(i))
		}
		removeKey(t, &tab, cluster[victim])
		for i, k := range cluster {
			p := tab.lookup(k)
			if i == victim {
				if p != nil {
					t.Fatalf("victim %d still present", victim)
				}
				continue
			}
			if p == nil {
				t.Fatalf("removing %d lost key %d", victim, i)
			}
			if got, _ := p.vals[0].AsInt(); got != int64(i) {
				t.Fatalf("removing %d corrupted key %d: got %d", victim, i, got)
			}
		}
	}
}

// TestMatchTableSlabReuse checks that removeAt recycles slab records instead
// of growing the slab, and that growth keeps outstanding entries intact.
func TestMatchTableSlabReuse(t *testing.T) {
	var tab matchTable
	k := func(i int) token.ActivityName {
		return token.ActivityName{Context: token.Context(i), Initiation: 1}
	}
	for i := 0; i < 64; i++ {
		tab.insert(k(i))
		removeKey(t, &tab, k(i))
	}
	if len(tab.slab) != 1 {
		t.Fatalf("slab grew to %d records for a live population of 1", len(tab.slab))
	}
	// Push through several growths and verify all bindings survive.
	for i := 0; i < 1000; i++ {
		tab.insert(k(i)).vals[1] = token.Int(int64(i))
	}
	for i := 0; i < 1000; i++ {
		p := tab.lookup(k(i))
		if p == nil {
			t.Fatalf("key %d lost across growth", i)
		}
		if got, _ := p.vals[1].AsInt(); got != int64(i) {
			t.Fatalf("key %d: got %d after growth", i, got)
		}
	}
}
