package serve

import (
	"strings"
	"testing"
)

func testSubstrate(t *testing.T, n int) *Substrate {
	t.Helper()
	s := Spec{Experiment: "flood", Graph: GraphSpec{Family: "ring", N: n}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return buildSubstrate(s.SubstrateKey(), s.Graph)
}

func TestSubstrateDerivedArtifacts(t *testing.T) {
	s := testSubstrate(t, 8)
	// A unit-weight ring: 𝓔 = n, 𝓥 = n-1.
	if s.TotalWeight() != 8 || s.MSTWeight() != 7 {
		t.Fatalf("ring weights: 𝓔=%d 𝓥=%d, want 8/7", s.TotalWeight(), s.MSTWeight())
	}
}

func TestCacheHitAndMiss(t *testing.T) {
	c := NewCache(1 << 20)
	builds := 0
	build := func() *Substrate { builds++; return testSubstrate(t, 8) }
	a, hit := c.GetOrBuild("k1", build)
	if hit || builds != 1 {
		t.Fatalf("first get: hit=%v builds=%d, want miss/1", hit, builds)
	}
	b, hit := c.GetOrBuild("k1", build)
	if !hit || builds != 1 || a != b {
		t.Fatalf("second get: hit=%v builds=%d same=%v, want hit/1/true", hit, builds, a == b)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// LRU eviction: filling past the byte budget drops the least recently
// used entry, and a Get refreshes recency.
func TestCacheEviction(t *testing.T) {
	one := testSubstrate(t, 8)
	c := NewCache(one.Bytes()*2 + one.Bytes()/2) // room for two entries
	get := func(key string) (*Substrate, bool) {
		return c.GetOrBuild(key, func() *Substrate { return testSubstrate(t, 8) })
	}
	get("a")
	get("b")
	get("a") // refresh a: LRU order is now b, a
	get("c") // evicts b
	_, hitA := get("a")
	_, hitB := get("b")
	if !hitA {
		t.Error("a was evicted despite being recently used")
	}
	if hitB {
		t.Error("b survived eviction")
	}
	if st := c.Stats(); st.Evictions < 1 {
		t.Errorf("stats = %+v, want at least one eviction", st)
	}
}

// An entry larger than the whole budget still builds and serves (the
// newest entry is never evicted).
func TestCacheOversizedEntry(t *testing.T) {
	c := NewCache(1) // absurdly small
	s, hit := c.GetOrBuild("big", func() *Substrate { return testSubstrate(t, 8) })
	if s == nil || hit {
		t.Fatalf("oversized build: sub=%v hit=%v", s, hit)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stats = %+v, want the oversized entry retained", st)
	}
}

// Mutating a cached substrate must panic at the next hit: substrates
// are shared across jobs, and a silent mutation would make results
// stop being a function of the spec.
func TestCacheVerifyPanicsOnMutation(t *testing.T) {
	c := NewCache(1 << 20)
	s, _ := c.GetOrBuild("k", func() *Substrate { return testSubstrate(t, 8) })
	s.Graph().Edges()[3].W = 99 // the forbidden write
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cache hit on a mutated substrate did not panic")
		}
		if !strings.Contains(r.(string), "mutated") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.GetOrBuild("k", func() *Substrate { t.Fatal("must not rebuild"); return nil })
}
