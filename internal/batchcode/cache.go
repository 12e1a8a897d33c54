package batchcode

import (
	"container/list"
	"sync"
)

// SideInfoCache is an LRU over decoded records, keyed by logical index.
// Hits are "side information" in the IPIR-SI sense: a record the client
// already holds need not be fetched, so the planner drops it from the
// real assignment and issues a dummy bucket query in its place — the
// traffic shape is byte-identical with or without the hit, which is
// what lets the cache exist without weakening privacy.
//
// A record read from the servers may be overtaken by an update before it
// reaches the cache. Generations keep such a record out: a fetch takes
// Generation before it reads, and Put drops the record when its index
// was invalidated since. Invalidation stamps live in a fixed table
// indexed by index modulo its size, so memory stays bounded however many
// records are updated; indices sharing a stamp can only drop each
// other's Puts (a lost cache fill, never a stale one).
type SideInfoCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[uint64]*list.Element
	gen     uint64   // advanced by every Invalidate
	stamps  []uint64 // generation of the last Invalidate per index slot
}

type cacheEntry struct {
	index uint64
	rec   []byte
}

// NewSideInfoCache builds a cache holding up to capacity records;
// capacity < 1 returns nil (no cache).
func NewSideInfoCache(capacity int) *SideInfoCache {
	if capacity < 1 {
		return nil
	}
	return &SideInfoCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[uint64]*list.Element, capacity),
		stamps:  make([]uint64, 4*capacity),
	}
}

// Get returns a copy of the cached record and refreshes its recency.
func (c *SideInfoCache) Get(index uint64) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[index]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	rec := el.Value.(*cacheEntry).rec
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, true
}

// Generation returns the current generation: take it before reading a
// record from the servers and pass it to Put.
func (c *SideInfoCache) Generation() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Put stores a copy of a record read at generation gen, evicting the
// least recently used entry when full. The record is dropped when its
// index was invalidated after gen was taken: an update overtook the read.
func (c *SideInfoCache) Put(index uint64, rec []byte, gen uint64) {
	if c == nil {
		return
	}
	cp := make([]byte, len(rec))
	copy(cp, rec)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stamps[index%uint64(len(c.stamps))] > gen {
		return
	}
	if el, ok := c.entries[index]; ok {
		el.Value.(*cacheEntry).rec = cp
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).index)
	}
	c.entries[index] = c.order.PushFront(&cacheEntry{index: index, rec: cp})
}

// Invalidate drops an entry (the record was updated; stale side
// information would decode wrong answers) and advances the generation,
// so a Put of the record read before this call is dropped.
func (c *SideInfoCache) Invalidate(index uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.stamps[index%uint64(len(c.stamps))] = c.gen
	if el, ok := c.entries[index]; ok {
		c.order.Remove(el)
		delete(c.entries, index)
	}
}

// Len returns the live entry count.
func (c *SideInfoCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
