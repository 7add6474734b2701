// Package cache holds the content addresses of the fleet layer: SHA-256
// digests of programs, secret inputs and job specs. Two corpus cells
// whose suspects and inputs digest equal share one trace (wm.TraceUnits),
// and a job's ID is the digest of its spec.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
)

// Stats is a memo table's hit/miss snapshot. No product path keeps a
// memo any more; the type survives only as the return type of
// wm.(*FleetCaches).DecryptStats, a perfbench-only stand-in that ROADMAP
// item 1 removes.
type Stats struct {
	Hits, Misses int64
}

// Lookups returns Hits + Misses.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }

// Digest is a content address: a SHA-256 hash.
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
