package graph

import "repro/internal/token"

// MatchTable is the waiting-matching store of Figure 2-4: an associative
// memory keyed by activity name that holds each two-operand activity's
// first operand until its partner arrives. Every token-matching executor
// pairs its operands here: the TTDA's PEs (internal/core), this package's
// reference interpreter and the emulator's nodes. The zero value is an
// empty table.
//
// It is an open-addressed hash table over two dense structures — a
// linear-probed bucket array (key + slab index) and a slab of partial
// records recycled through a free list — so the hot path (one probe per
// d=0 token) touches contiguous memory and allocates only when the live
// population grows past any previous peak.
//
// Deletion uses backward-shift compaction instead of tombstones: probe
// chains stay minimal no matter how many park/match cycles a run
// performs, so the table's behaviour is a pure function of its contents.
// The hash is a fixed (seedless) mix, which keeps runs reproducible; only
// Each sees the layout, and the checkpoint sorts what it yields, so
// layout never leaks into simulation order.
type MatchTable struct {
	keys []token.ActivityName
	// idx[b] is the slab index of the entry in bucket b, or matchEmpty.
	idx  []int32
	mask uint32
	n    int

	slab []partial
	free []int32
}

// Outcome is what Match did with a token.
type Outcome uint8

const (
	// Parked: the token is its activity's first operand and now waits in
	// the table.
	Parked Outcome = iota
	// Matched: the token completed its activity's operand pair, which
	// Match returned and removed from the table.
	Matched
	// Duplicate: the activity already holds an operand on the token's
	// port. The table is unchanged.
	Duplicate
)

// partial is a half-matched activity: exactly one of its ports holds a
// value while it is resident.
type partial struct {
	vals [2]token.Value
	have [2]bool
}

const matchEmpty = int32(-1)

// matchTableMinBuckets is the initial bucket count (power of two).
const matchTableMinBuckets = 16

func (t *MatchTable) init(buckets int) {
	t.keys = make([]token.ActivityName, buckets)
	t.idx = make([]int32, buckets)
	for i := range t.idx {
		t.idx[i] = matchEmpty
	}
	t.mask = uint32(buckets - 1)
	t.n = 0
}

// hashActivity mixes the (u, c, s, i) four-tuple into a bucket hash with a
// splitmix64-style finalizer. Fixed constants, no per-run seed: two runs
// of the same program produce identical tables.
func hashActivity(k token.ActivityName) uint64 {
	h := uint64(k.Context)<<32 | uint64(k.CodeBlock)<<16 | uint64(k.Statement)
	h ^= uint64(k.Initiation) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Len reports the number of half-matched activities resident in the store.
func (t *MatchTable) Len() int { return t.n }

// Match presents value v for operand port (0 or 1) of activity act. When
// act is absent the value parks; when act waits on the other port the pair
// leaves the table and vals holds both operands, indexed by port. One
// probe sequence serves every outcome: a failed lookup has already found
// the insertion bucket, and a hit removes the entry at the bucket it
// found.
func (t *MatchTable) Match(act token.ActivityName, port uint8, v token.Value) (vals [2]token.Value, out Outcome) {
	if t.idx == nil {
		t.init(matchTableMinBuckets)
	}
	b := uint32(hashActivity(act)) & t.mask
	for {
		s := t.idx[b]
		if s == matchEmpty {
			break
		}
		if t.keys[b] == act {
			p := &t.slab[s]
			if p.have[port] {
				return vals, Duplicate
			}
			vals = p.vals
			vals[port] = v
			t.removeAt(b)
			return vals, Matched
		}
		b = (b + 1) & t.mask
	}
	if uint32(t.n) >= (t.mask+1)/4*3 {
		t.grow()
		// Growth rehashed every binding; the probe position is stale.
		b = uint32(hashActivity(act)) & t.mask
		for t.idx[b] != matchEmpty {
			b = (b + 1) & t.mask
		}
	}
	var s int32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
		t.slab[s] = partial{}
	} else {
		s = int32(len(t.slab))
		t.slab = append(t.slab, partial{})
	}
	p := &t.slab[s]
	p.vals[port] = v
	p.have[port] = true
	t.keys[b] = act
	t.idx[b] = s
	t.n++
	return vals, Parked
}

// Each calls f for every resident activity with the port its operand
// arrived on and the operand's value, in bucket order: a caller that needs
// a reproducible order sorts what it receives. f must not call Match.
func (t *MatchTable) Each(f func(act token.ActivityName, port uint8, v token.Value)) {
	for b, s := range t.idx {
		if s == matchEmpty {
			continue
		}
		p := &t.slab[s]
		if p.have[0] {
			f(t.keys[b], 0, p.vals[0])
		} else {
			f(t.keys[b], 1, p.vals[1])
		}
	}
}

// place finds k's probe slot and stores the binding (no growth, no count).
func (t *MatchTable) place(k token.ActivityName, s int32) {
	b := uint32(hashActivity(k)) & t.mask
	for t.idx[b] != matchEmpty {
		b = (b + 1) & t.mask
	}
	t.keys[b] = k
	t.idx[b] = s
}

// removeAt deletes the entry in occupied bucket b, recycling its slab
// record. Backward-shift compaction: entries displaced past the freed
// bucket by linear probing move back so every remaining entry stays
// reachable from its home bucket without tombstones.
func (t *MatchTable) removeAt(b uint32) {
	t.free = append(t.free, t.idx[b])
	t.n--
	// Shift the tail of the probe cluster back over the hole.
	hole := b
	for {
		b = (b + 1) & t.mask
		s := t.idx[b]
		if s == matchEmpty {
			break
		}
		home := uint32(hashActivity(t.keys[b])) & t.mask
		// The entry may move back iff the hole lies cyclically within
		// [home, b); otherwise it is already at or before its home.
		if (b-home)&t.mask >= (b-hole)&t.mask {
			t.keys[hole] = t.keys[b]
			t.idx[hole] = s
			hole = b
		}
	}
	t.idx[hole] = matchEmpty
}

// grow doubles the bucket array and rehashes every binding. Slab indices
// are unaffected.
func (t *MatchTable) grow() {
	oldKeys, oldIdx := t.keys, t.idx
	t.init(int(2 * (t.mask + 1)))
	n := 0
	for b, s := range oldIdx {
		if s != matchEmpty {
			t.place(oldKeys[b], s)
			n++
		}
	}
	t.n = n
}
