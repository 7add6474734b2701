package cache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

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
