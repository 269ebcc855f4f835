package harness

import (
	"testing"

	"repro/internal/obs"
)

// TestCachedBackendCacheMetrics drives the pool through misses, hits,
// evictions and a shared load with an injected obs registry and checks every counter moves
// exactly as the LRU does.
func TestCachedBackendCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewCachedBackend(2)
	b.Obs = reg
	build := j48Builder(t, nil)

	hits := reg.Counter("harness_cache_hits_total")
	misses := reg.Counter("harness_cache_misses_total")
	evictions := reg.Counter("harness_cache_evictions_total")
	entries := reg.Gauge("harness_cache_entries")

	// First touch of each key is a miss.
	if _, err := b.Acquire("a", build); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Acquire("b", build); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 0 || misses.Value() != 2 {
		t.Fatalf("after two cold acquires: hits=%d misses=%d", hits.Value(), misses.Value())
	}
	if entries.Value() != 2 {
		t.Fatalf("entries gauge = %d, want 2", entries.Value())
	}

	// Re-acquiring a cached key is a hit and changes nothing else.
	if _, err := b.Acquire("a", build); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 1 || misses.Value() != 2 || evictions.Value() != 0 {
		t.Fatalf("after hit: hits=%d misses=%d evictions=%d",
			hits.Value(), misses.Value(), evictions.Value())
	}

	// A third key overflows the 2-entry pool: miss plus eviction of the LRU
	// entry ("b", since "a" was just touched).
	if _, err := b.Acquire("c", build); err != nil {
		t.Fatal(err)
	}
	if misses.Value() != 3 || evictions.Value() != 1 {
		t.Fatalf("after overflow: misses=%d evictions=%d", misses.Value(), evictions.Value())
	}
	if entries.Value() != 2 {
		t.Fatalf("entries gauge after eviction = %d, want 2", entries.Value())
	}
	if b.Len() != 2 {
		t.Fatalf("pool len = %d, want 2", b.Len())
	}

	// The evicted key misses again.
	if _, err := b.Acquire("b", build); err != nil {
		t.Fatal(err)
	}
	if misses.Value() != 4 {
		t.Fatalf("evicted key re-acquire: misses=%d, want 4", misses.Value())
	}

	// A caller that arrives while another caller's miss is loading joins
	// that load: it counts as shared, not as a second miss or a hit.
	shared := reg.Counter("harness_cache_shared_total")
	if shared.Value() != 0 {
		t.Fatalf("shared = %d before any concurrent miss", shared.Value())
	}
	p := newParked()
	leader := acquireAsync(b, "d", p.build)
	<-p.started
	follower := acquireAsync(b, "d", mustNotBuild(t))
	waitJoined(t, reg, 1)
	p.outcome <- nil
	for _, ch := range []<-chan acquired{leader, follower} {
		if got := recv(t, ch, "acquire d"); got.err != nil || got.c != p.c {
			t.Fatalf("acquire d: %v %v", got.c, got.err)
		}
	}
	if shared.Value() != 1 || misses.Value() != 5 || hits.Value() != 1 || evictions.Value() != 3 {
		t.Fatalf("after shared load: shared=%d misses=%d hits=%d evictions=%d",
			shared.Value(), misses.Value(), hits.Value(), evictions.Value())
	}
}
