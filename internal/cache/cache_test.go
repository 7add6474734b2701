package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCache64Memoizes(t *testing.T) {
	c := NewCache64(0)
	calls := 0
	f := func(k uint64) uint64 { calls++; return k * 3 }
	for i := 0; i < 4; i++ {
		if v := c.GetOrCompute(7, f); v != 21 {
			t.Fatalf("GetOrCompute(7) = %d, want 21", v)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 3 || st.Bypassed != 0 {
		t.Errorf("stats %+v, want 1 miss / 3 hits", st)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCache64NilComputesDirectly(t *testing.T) {
	var c *Cache64
	calls := 0
	f := func(k uint64) uint64 { calls++; return k + 1 }
	if v := c.GetOrCompute(9, f); v != 10 {
		t.Fatalf("nil cache returned %d, want 10", v)
	}
	c.GetOrCompute(9, f)
	if calls != 2 {
		t.Errorf("nil cache must compute every time, ran %d times", calls)
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Error("nil cache must report empty state")
	}
}

// TestCache64AtMostOncePerKey is the concurrency property the scan relies
// on: hammering the same key set from many goroutines computes each
// distinct key exactly once (within capacity).
func TestCache64AtMostOncePerKey(t *testing.T) {
	c := NewCache64(0)
	var computes atomic.Int64
	const keys = 512
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for k := uint64(0); k < keys; k++ {
					got := c.GetOrCompute(k, func(k uint64) uint64 {
						computes.Add(1)
						return k ^ 0xdeadbeef
					})
					if got != k^0xdeadbeef {
						t.Errorf("worker %d: wrong value for %d", w, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := computes.Load(); n != keys {
		t.Errorf("computed %d times for %d distinct keys", n, keys)
	}
	st := c.Stats()
	if st.Misses != keys {
		t.Errorf("misses %d, want %d", st.Misses, keys)
	}
	if st.Lookups() != keys*workers*4 {
		t.Errorf("lookups %d, want %d", st.Lookups(), keys*workers*4)
	}
}

// TestCache64BoundedEviction checks the capacity contract: results stay
// correct beyond capacity, overflow inserts evict resident entries (and
// are counted), and the table never exceeds its (shard-rounded) bound.
func TestCache64BoundedEviction(t *testing.T) {
	c := NewCache64(cache64Shards) // one entry per shard
	const keys = 10_000
	for k := uint64(0); k < keys; k++ {
		if v := c.GetOrCompute(k, func(k uint64) uint64 { return k + 5 }); v != k+5 {
			t.Fatalf("key %d: wrong value %d", k, v)
		}
	}
	if c.Len() > cache64Shards {
		t.Errorf("Len %d exceeds capacity %d", c.Len(), cache64Shards)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions beyond capacity")
	}
	// Every distinct key computes (and stores) exactly once on this pass.
	if st.Misses != keys {
		t.Errorf("misses = %d, want %d", st.Misses, keys)
	}
	if got := int64(c.Len()) + st.Evictions; got != keys {
		t.Errorf("Len+Evictions = %d, want %d (every stored key is resident or evicted)", got, keys)
	}
	// Rereads still return the right value whether resident or evicted.
	for k := uint64(0); k < keys; k++ {
		if v := c.GetOrCompute(k, func(k uint64) uint64 { return k + 5 }); v != k+5 {
			t.Fatalf("key %d: wrong value on reread: %d", k, v)
		}
	}
	if c.Len() > cache64Shards {
		t.Errorf("Len %d exceeds capacity %d after rereads", c.Len(), cache64Shards)
	}
}

func TestKeyedSingleflight(t *testing.T) {
	c := NewKeyed[string, int](0)
	var computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.GetOrCompute("k", func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("got (%d, %v), want (42, nil)", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 15 {
		t.Errorf("stats %+v, want 1 miss / 15 hits", st)
	}
}

func TestKeyedCachesErrors(t *testing.T) {
	c := NewKeyed[int, string](0)
	boom := errors.New("boom")
	calls := 0
	f := func() (string, error) { calls++; return "", boom }
	for i := 0; i < 3; i++ {
		if _, err := c.GetOrCompute(1, f); !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
	}
	if calls != 1 {
		t.Errorf("failing compute ran %d times, want 1 (errors are cached)", calls)
	}
}

func TestKeyedBoundedEviction(t *testing.T) {
	c := NewKeyed[int, int](2)
	for k := 0; k < 10; k++ {
		k := k
		v, err := c.GetOrCompute(k, func() (int, error) { return k * k, nil })
		if err != nil || v != k*k {
			t.Fatalf("key %d: got (%d, %v)", k, v, err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if st := c.Stats(); st.Evictions != 8 || st.Misses != 10 || st.Bypassed != 0 {
		t.Errorf("stats %+v, want 10 misses / 8 evictions / 0 bypassed", st)
	}
	// An evicted key recomputes and is stored again (a fresh miss, with
	// another eviction to make room).
	if v, err := c.GetOrCompute(0, func() (int, error) { return 0, nil }); err != nil || v != 0 {
		t.Fatalf("evicted key reread: got (%d, %v)", v, err)
	}
}

// TestKeyedEvictionSparesInflight pins the singleflight-safety property:
// when every resident entry is still being computed, a new key bypasses
// instead of evicting the entry concurrent waiters are blocked on.
func TestKeyedEvictionSparesInflight(t *testing.T) {
	c := NewKeyed[int, int](1)
	inFlight := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.GetOrCompute(1, func() (int, error) {
			close(inFlight)
			<-release
			return 11, nil
		})
		done <- err
	}()
	<-inFlight
	// Key 2 arrives while key 1 (the only resident entry) is mid-compute:
	// it must bypass, not evict.
	if v, err := c.GetOrCompute(2, func() (int, error) { return 22, nil }); err != nil || v != 22 {
		t.Fatalf("got (%d, %v), want (22, nil)", v, err)
	}
	if st := c.Stats(); st.Bypassed != 1 || st.Evictions != 0 {
		t.Errorf("stats %+v, want 1 bypass / 0 evictions while sole entry is in flight", st)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight compute failed: %v", err)
	}
	// Key 1 finished and was stored; a reread hits.
	if v, err := c.GetOrCompute(1, func() (int, error) { return -1, nil }); err != nil || v != 11 {
		t.Fatalf("stored in-flight result lost: got (%d, %v)", v, err)
	}
}

func TestKeyedNil(t *testing.T) {
	var c *Keyed[int, int]
	calls := 0
	for i := 0; i < 2; i++ {
		v, err := c.GetOrCompute(3, func() (int, error) { calls++; return 8, nil })
		if err != nil || v != 8 {
			t.Fatalf("nil keyed cache: got (%d, %v)", v, err)
		}
	}
	if calls != 2 {
		t.Errorf("nil keyed cache must compute every time, ran %d", calls)
	}
}

func TestStatsArithmetic(t *testing.T) {
	s := Stats{Hits: 30, Misses: 10, Bypassed: 10}
	if s.Lookups() != 50 {
		t.Errorf("Lookups = %d", s.Lookups())
	}
	d := s.Sub(Stats{Hits: 10, Misses: 5, Bypassed: 0})
	if d != (Stats{Hits: 20, Misses: 5, Bypassed: 10}) {
		t.Errorf("Sub = %+v", d)
	}
}

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

func BenchmarkCache64Hit(b *testing.B) {
	c := NewCache64(0)
	f := func(k uint64) uint64 { return k * 2654435761 }
	for k := uint64(0); k < 1024; k++ {
		c.GetOrCompute(k, f)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		k := uint64(0)
		for pb.Next() {
			c.GetOrCompute(k&1023, f)
			k++
		}
	})
}

func FuzzCache64Consistency(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(2))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		cc := NewCache64(2)
		fn := func(k uint64) uint64 { return mix64(k) }
		for _, k := range []uint64{a, b, c, a, b, c} {
			if got := cc.GetOrCompute(k, fn); got != mix64(k) {
				t.Fatalf("key %d: got %d, want %d", k, got, mix64(k))
			}
		}
	})
}

func ExampleCache64() {
	c := NewCache64(1 << 20)
	decrypts := 0
	decrypt := func(w uint64) uint64 { decrypts++; return w ^ 0xf0f0f0f0 }
	for _, w := range []uint64{1, 2, 1, 1, 2} {
		c.GetOrCompute(w, decrypt)
	}
	fmt.Println(decrypts, "decrypts for 5 windows")
	// Output: 2 decrypts for 5 windows
}
