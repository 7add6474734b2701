package cache

import "testing"

func TestDigests(t *testing.T) {
	// Length prefixing: the same concatenation split differently must not
	// collide.
	a := DigestBytes([]byte("ab"), []byte("c"))
	b := DigestBytes([]byte("a"), []byte("bc"))
	if a == b {
		t.Error("part boundaries are ambiguous")
	}
	if DigestBytes([]byte("ab"), []byte("c")) != a {
		t.Error("DigestBytes not deterministic")
	}
	if DigestInt64s([]int64{1, 2}) == DigestInt64s([]int64{1, 2, 0}) {
		t.Error("DigestInt64s ignores length")
	}
	if DigestInt64s(nil) != DigestInt64s([]int64{}) {
		t.Error("nil and empty input must digest identically")
	}
}
