package core

import "repro/internal/token"

// matchTable is the waiting-matching store: an open-addressed hash table
// mapping activity names to half-matched operand records. It replaces the
// earlier map[token.ActivityName]*partial with two dense structures — a
// linear-probed bucket array (key + slab index) and a slab of partial
// records recycled through a free list — so the matching section's hot
// path (lookup, insert, remove on every d=0 token) touches contiguous
// memory and allocates only when the live population grows past any
// previous peak.
//
// Deletion uses backward-shift compaction instead of tombstones: probe
// chains stay minimal no matter how many insert/remove cycles a run
// performs, so the table's behaviour is a pure function of its contents.
// The hash is a fixed (seedless) mix, which keeps runs reproducible; no
// caller ever iterates the table, so layout never leaks into simulation
// order.
type matchTable struct {
	keys []token.ActivityName
	// idx[b] is the slab index of the entry in bucket b, or matchEmpty.
	idx  []int32
	mask uint32
	n    int

	slab []partial
	free []int32
}

const matchEmpty = int32(-1)

// matchTableMinBuckets is the initial bucket count (power of two).
const matchTableMinBuckets = 16

func (t *matchTable) init(buckets int) {
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
func (t *matchTable) Len() int { return t.n }

// lookup returns the partial record for k, or nil when absent. The pointer
// stays valid until the next insert (which may grow the slab).
func (t *matchTable) lookup(k token.ActivityName) *partial {
	if t.n == 0 {
		return nil
	}
	b := uint32(hashActivity(k)) & t.mask
	for {
		s := t.idx[b]
		if s == matchEmpty {
			return nil
		}
		if t.keys[b] == k {
			return &t.slab[s]
		}
		b = (b + 1) & t.mask
	}
}

// lookupOrInsert returns k's bucket and partial record, inserting a zeroed
// record when absent (inserted reports which). It fuses the
// lookup-then-insert pair the matching section performs on every
// first-operand arrival into one probe sequence: the failed lookup already
// found the insertion bucket, so insert-after-miss need not rehash and
// re-probe. The bucket holds k until the next insert or remove, so the
// second operand's arrival hands it to removeAt without probing again.
func (t *matchTable) lookupOrInsert(k token.ActivityName) (b uint32, p *partial, inserted bool) {
	if t.idx == nil {
		t.init(matchTableMinBuckets)
	}
	b = uint32(hashActivity(k)) & t.mask
	for {
		s := t.idx[b]
		if s == matchEmpty {
			break
		}
		if t.keys[b] == k {
			return b, &t.slab[s], false
		}
		b = (b + 1) & t.mask
	}
	if uint32(t.n) >= (t.mask+1)/4*3 {
		t.grow()
		// Growth rehashed every binding; the probe position is stale.
		b = uint32(hashActivity(k)) & t.mask
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
	t.keys[b] = k
	t.idx[b] = s
	t.n++
	return b, &t.slab[s], true
}

// insert adds a zeroed partial record for k, which must be absent, and
// returns it.
func (t *matchTable) insert(k token.ActivityName) *partial {
	if t.idx == nil {
		t.init(matchTableMinBuckets)
	} else if uint32(t.n) >= (t.mask+1)/4*3 {
		t.grow()
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
	t.place(k, s)
	t.n++
	return &t.slab[s]
}

// place finds k's probe slot and stores the binding (no growth, no count).
func (t *matchTable) place(k token.ActivityName, s int32) {
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
func (t *matchTable) removeAt(b uint32) {
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

// grow doubles the bucket array and rehashes every binding. Slab indices —
// and therefore outstanding *partial pointers — are unaffected.
func (t *matchTable) grow() {
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
