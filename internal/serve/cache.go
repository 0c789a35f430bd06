package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// Cache is the content-addressed result store: canonical job key →
// encoded result bytes, bounded by entry count with LRU eviction.
//
// Every entry carries the SHA-256 of its body, verified on every Get: a
// corrupted entry (bit rot, a bug scribbling over a shared slice) is
// detected, counted, and evicted rather than served. Serving a wrong
// byte would be worse here than in most caches — the repository's whole
// testing story rests on results being exactly reproducible, so a cache
// that silently decayed would forge "reproducible" numbers.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	lru     *list.List // front = most recent

	hits, misses, evictions, corruptions uint64
}

type cacheEntry struct {
	key  string
	body []byte
	sum  [sha256.Size]byte
}

// NewCache bounds the store at maxEntries (minimum 1).
func NewCache(maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{max: maxEntries, entries: make(map[string]*list.Element), lru: list.New()}
}

// Get returns the stored body for key. The returned slice is shared and
// must be treated as read-only. A checksum mismatch evicts the entry
// and reports a miss.
func (c *Cache) Get(key string) ([]byte, bool) { return c.get(key, true) }

// getHit is Get for a caller that answers a miss by falling back to a
// path that calls Get itself: a hit counts, a miss does not, so the
// fallback's own Get counts the request's one miss.
func (c *Cache) getHit(key string) ([]byte, bool) { return c.get(key, false) }

func (c *Cache) get(key string, countMiss bool) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if sha256.Sum256(e.body) != e.sum {
		c.corruptions++
		if countMiss {
			c.misses++
		}
		c.removeLocked(el)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.body, true
}

// Put stores a copy of body under key, evicting the least-recently-used
// entry when full. Re-putting an existing key refreshes it (the bodies
// are necessarily identical — keys are content addresses — but a
// refresh heals a corrupted-and-evicted slot).
func (c *Cache) Put(key string, body []byte) {
	e := &cacheEntry{key: key, body: append([]byte(nil), body...)}
	e.sum = sha256.Sum256(e.body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.max {
		c.evictions++
		c.removeLocked(c.lru.Back())
	}
	c.entries[key] = c.lru.PushFront(e)
}

func (c *Cache) removeLocked(el *list.Element) {
	delete(c.entries, el.Value.(*cacheEntry).key)
	c.lru.Remove(el)
}

// Len reports the live entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CacheStats is a point-in-time accounting snapshot.
type CacheStats struct {
	Entries     int    `json:"entries"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	Corruptions uint64 `json:"corruptions"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:     c.lru.Len(),
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Corruptions: c.corruptions,
	}
}

// corrupt flips a bit in a stored entry's body without touching its
// checksum — the harness-teeth hook the cache-integrity tests use to
// prove corruption is detected and evicted, never served.
func (c *Cache) corrupt(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	e := el.Value.(*cacheEntry)
	if len(e.body) == 0 {
		return false
	}
	e.body[len(e.body)/2] ^= 0x40
	return true
}
