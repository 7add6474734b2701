// Package cache provides the content-addressed caching layer under the
// fleet-scale fingerprinting paths: a singleflight keyed cache for
// decoded trace bit-strings (corpus recognition matches one suspect
// against many candidate keys, and every key sharing a secret input can
// reuse the same trace), and the SHA-256 digests that address it.
//
// The keyed cache is a pure memo table: GetOrCompute always returns
// exactly what the compute function would return, whether or not the
// result was (or could be) stored, so enabling it never changes results
// — only how often the underlying function runs. It is safe for
// concurrent use and nil-safe (a nil cache degenerates to calling the
// function), so call sites need no flags around it.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of a cache's traffic counters.
type Stats struct {
	// Hits counts lookups answered from the table, including lookups
	// coalesced onto an in-flight computation.
	Hits int64
	// Misses counts lookups that ran the compute function and stored the
	// result.
	Misses int64
	// Bypassed counts lookups that ran the compute function WITHOUT
	// storing the result because the table was at capacity and every
	// resident entry was still in flight. A bypassed key may be computed again later; within
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
