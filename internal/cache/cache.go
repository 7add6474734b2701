// Package cache provides the shared caching layer under the fleet-scale
// fingerprinting paths: a sharded memo table for 64-bit window decryption
// (the recognizer's hot loop decrypts the same loop-generated window
// thousands of times per trace) and a content-addressed, singleflight
// keyed cache for decoded trace bit-strings (corpus recognition matches
// one suspect against many candidate keys, and every key sharing a secret
// input can reuse the same trace).
//
// Both caches are pure memo tables: GetOrCompute always returns exactly
// what the compute function would return, whether or not the result was
// (or could be) stored, so enabling a cache never changes results — only
// how often the underlying function runs. Both are safe for concurrent
// use and nil-safe (a nil cache degenerates to calling the function), so
// call sites need no flags around them.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of a cache's traffic counters.
type Stats struct {
	// Hits counts lookups answered from the table (including lookups
	// coalesced onto an in-flight computation, for the keyed cache).
	Hits int64
	// Misses counts lookups that ran the compute function and stored the
	// result.
	Misses int64
	// Bypassed counts lookups that ran the compute function WITHOUT
	// storing the result because the table was at capacity and held no
	// evictable entry (for the keyed cache, every resident entry still
	// in flight). A bypassed key may be computed again later; within
	// capacity every distinct key is computed at most once.
	Bypassed int64
	// Evictions counts resident entries discarded to make room for a new
	// key once the table reached capacity. An evicted key that returns
	// recomputes (a fresh miss), so beyond capacity the miss count is a
	// function of the access sequence — memory stays bounded and results
	// stay exact, only the amortization weakens.
	Evictions int64
}

// Lookups returns the total number of GetOrCompute calls the stats cover.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses + s.Bypassed }

// Sub returns the delta s - prior, for attributing traffic to one
// pipeline phase of a long-lived cache.
func (s Stats) Sub(prior Stats) Stats {
	return Stats{
		Hits:      s.Hits - prior.Hits,
		Misses:    s.Misses - prior.Misses,
		Bypassed:  s.Bypassed - prior.Bypassed,
		Evictions: s.Evictions - prior.Evictions,
	}
}

// cache64Shards is the shard count of Cache64. Power of two so shard
// selection is a mask; 128 shards keep lock contention negligible at any
// realistic scan worker count.
const cache64Shards = 128

type cache64Shard struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

// Cache64 is a bounded, sharded, concurrency-safe memo table from uint64
// keys to uint64 values, built for the recognizer's per-key decrypt
// cache: key = 64-bit trace window, value = its decryption.
//
// The compute function runs while the key's shard lock is held, so within
// capacity each distinct key is computed AT MOST ONCE regardless of how
// many workers look it up concurrently — the property that makes
// "decrypts per distinct window" an invariant rather than a race. The
// compute function must therefore be fast (a block-cipher call, not I/O)
// and must not touch the cache reentrantly.
type Cache64 struct {
	shards      [cache64Shards]cache64Shard
	maxPerShard int
	hits        atomic.Int64
	misses      atomic.Int64
	bypassed    atomic.Int64
	evictions   atomic.Int64
}

// NewCache64 returns a Cache64 holding at most maxEntries values
// (rounded up to a multiple of the shard count); maxEntries <= 0 means
// unbounded. Once a shard is full, inserting a new key evicts an
// arbitrary resident entry (counted as an Eviction) — memory stays
// bounded for arbitrarily long-lived caches, results stay correct, and
// only the at-most-once guarantee is relinquished for keys that churn
// past capacity.
func NewCache64(maxEntries int) *Cache64 {
	c := &Cache64{}
	if maxEntries > 0 {
		c.maxPerShard = (maxEntries + cache64Shards - 1) / cache64Shards
	}
	return c
}

// mix64 is the splitmix64 finalizer: trace windows are highly structured
// (long runs, strided payloads), so shard selection needs real avalanche
// to spread them across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// GetOrCompute returns the cached value for k, computing and storing it
// via f on a miss. On a nil receiver it simply returns f(k).
func (c *Cache64) GetOrCompute(k uint64, f func(uint64) uint64) uint64 {
	if c == nil {
		return f(k)
	}
	s := &c.shards[mix64(k)&(cache64Shards-1)]
	s.mu.Lock()
	if v, ok := s.m[k]; ok {
		s.mu.Unlock()
		c.hits.Add(1)
		return v
	}
	// Compute under the shard lock: concurrent callers of the same key
	// block here and then hit, so the key is computed exactly once.
	v := f(k)
	evicted := int64(0)
	if c.maxPerShard > 0 && len(s.m) >= c.maxPerShard {
		// Evict an arbitrary resident key (map iteration order) so the
		// new, presumably hotter key gets cached. Loop in case the map
		// somehow overshot the bound; normally one deletion suffices.
		for victim := range s.m {
			delete(s.m, victim)
			evicted++
			if len(s.m) < c.maxPerShard {
				break
			}
		}
	}
	if s.m == nil {
		s.m = make(map[uint64]uint64)
	}
	s.m[k] = v
	s.mu.Unlock()
	c.misses.Add(1)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
	return v
}

// Peek returns the cached value for k without computing anything. A
// found key counts as a Hit; an absent key counts nothing — the caller
// is expected to follow up with Put after computing, which records the
// Miss, so a Peek-miss/Put pair accounts exactly like one GetOrCompute
// miss. Nil receivers never hold anything.
//
// Peek/Put exist for batch users (the block-decrypt scan kernel) that
// want to gather all missing keys first and compute them in one
// vectorized call instead of one compute closure per key.
func (c *Cache64) Peek(k uint64) (uint64, bool) {
	if c == nil {
		return 0, false
	}
	s := &c.shards[mix64(k)&(cache64Shards-1)]
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return v, ok
}

// Put stores v for k, completing a Peek-miss. If the key is already
// resident (another worker computed it between Peek and Put, or the
// batch held a duplicate) the resident value is returned and the call
// counts as a Hit — mirroring GetOrCompute, where the second caller of a
// key hits; otherwise v is stored (evicting at capacity, like a miss in
// GetOrCompute) and returned, counting as a Miss. On a nil receiver Put
// just returns v.
func (c *Cache64) Put(k, v uint64) uint64 {
	if c == nil {
		return v
	}
	s := &c.shards[mix64(k)&(cache64Shards-1)]
	s.mu.Lock()
	if resident, ok := s.m[k]; ok {
		s.mu.Unlock()
		c.hits.Add(1)
		return resident
	}
	evicted := int64(0)
	if c.maxPerShard > 0 && len(s.m) >= c.maxPerShard {
		for victim := range s.m {
			delete(s.m, victim)
			evicted++
			if len(s.m) < c.maxPerShard {
				break
			}
		}
	}
	if s.m == nil {
		s.m = make(map[uint64]uint64)
	}
	s.m[k] = v
	s.mu.Unlock()
	c.misses.Add(1)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
	return v
}

// Len returns the number of stored entries (0 on nil).
func (c *Cache64) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Stats snapshots the traffic counters (zero on nil).
func (c *Cache64) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Bypassed: c.bypassed.Load(), Evictions: c.evictions.Load(),
	}
}

// keyedEntry holds one Keyed value; Once gives singleflight semantics
// (concurrent callers of the same key block until the first compute
// finishes, then share its result). done flips to true after the compute
// finishes: only done entries are eviction candidates, so coalesced
// waiters can never lose the entry they are blocked on.
type keyedEntry[V any] struct {
	once sync.Once
	done atomic.Bool
	val  V
	err  error
}

// Keyed is a bounded, concurrency-safe, singleflight memo table from a
// comparable key to an arbitrary value — the shape of the trace cache,
// whose keys are (program digest, input digest) pairs and whose values
// are decoded bit-strings. Compute functions may fail; errors are cached
// alongside values (recomputing a deterministic failure would not change
// it). A nil *Keyed computes directly.
type Keyed[K comparable, V any] struct {
	mu         sync.Mutex
	m          map[K]*keyedEntry[V]
	maxEntries int
	hits       atomic.Int64
	misses     atomic.Int64
	bypassed   atomic.Int64
	evictions  atomic.Int64
}

// NewKeyed returns a Keyed cache holding at most maxEntries entries
// (<= 0 = unbounded). At capacity a new key evicts an arbitrary
// completed entry; when every resident entry is still being computed the
// new key computes without storing (Bypassed).
func NewKeyed[K comparable, V any](maxEntries int) *Keyed[K, V] {
	return &Keyed[K, V]{m: make(map[K]*keyedEntry[V]), maxEntries: maxEntries}
}

// GetOrCompute returns the value for k, computing it via f at most once
// per stored key. Concurrent callers of an absent key coalesce: one runs
// f, the rest block and share the outcome.
func (c *Keyed[K, V]) GetOrCompute(k K, f func() (V, error)) (V, error) {
	if c == nil {
		return f()
	}
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		if c.maxEntries > 0 && len(c.m) >= c.maxEntries {
			evicted := false
			for victim, ve := range c.m {
				if ve.done.Load() {
					delete(c.m, victim)
					evicted = true
					break
				}
			}
			if !evicted {
				// Every resident entry is mid-compute and must stay
				// reachable for its coalesced waiters: compute without
				// storing rather than grow past the bound.
				c.mu.Unlock()
				c.bypassed.Add(1)
				return f()
			}
			c.evictions.Add(1)
		}
		e = &keyedEntry[V]{}
		c.m[k] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		e.val, e.err = f()
		e.done.Store(true)
	})
	return e.val, e.err
}

// Forget drops k's entry so the next lookup recomputes, reporting
// whether an entry was present. It exists for retry loops: the keyed
// cache memoizes deterministic failures on purpose, so a caller that has
// reason to believe a failure was transient (a timeout, a fault
// injection) must explicitly invalidate before retrying. Coalesced
// waiters of an in-flight entry are unaffected — they hold the entry
// pointer and still receive its outcome; only the table forgets it.
func (c *Keyed[K, V]) Forget(k K) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		delete(c.m, k)
		return true
	}
	return false
}

// Len returns the number of stored entries (0 on nil).
func (c *Keyed[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats snapshots the traffic counters (zero on nil).
func (c *Keyed[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Bypassed: c.bypassed.Load(), Evictions: c.evictions.Load(),
	}
}

// Digest is the content-address used by the keyed caches: a SHA-256 hash.
type Digest [sha256.Size]byte

// DigestBytes hashes a sequence of byte slices into one Digest. Each part
// is length-prefixed, so part boundaries are unambiguous ("ab","c" and
// "a","bc" digest differently).
func DigestBytes(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// DigestInt64s hashes an int64 sequence (e.g. a secret input vector).
func DigestInt64s(vs []int64) Digest {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(vs)))
	h.Write(buf[:])
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var d Digest
	h.Sum(d[:0])
	return d
}
