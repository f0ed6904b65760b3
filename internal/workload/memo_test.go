package workload

import (
	"encoding/json"
	"expvar"
	"testing"

	"hetwire/internal/trace"
)

func profileNamed(t *testing.T, name string) Profile {
	t.Helper()
	p, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return p
}

// streamPrefix drives a generator for n instructions and returns the emitted
// records.
func streamPrefix(g *Generator, n int) []trace.Instr {
	out := make([]trace.Instr, n)
	for i := 0; i < n; i++ {
		g.Next(&out[i])
	}
	return out
}

// TestMemoCachedStreamIdentical: a generator drawn from a memo hit emits the
// byte-identical instruction stream of a cold build — the property the
// golden-corpus batch test then pins end-to-end through the simulator.
func TestMemoCachedStreamIdentical(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "swim"} {
		p := profileNamed(t, name)
		c := NewCache(1 << 30)
		miss := c.Generator(p) // builds and caches
		hit := c.Generator(p)  // served from the memo
		cold := NewGeneratorUncached(p)

		const n = 20_000
		wantStream := streamPrefix(cold, n)
		for which, g := range map[string]*Generator{"miss": miss, "hit": hit} {
			got := streamPrefix(g, n)
			for i := range got {
				if got[i] != wantStream[i] {
					t.Fatalf("%s: %s generator diverges from cold build at instr %d:\n got %+v\nwant %+v",
						name, which, i, got[i], wantStream[i])
				}
			}
		}
		if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Errorf("%s: stats = %+v, want 1 hit / 1 miss", name, st)
		}
	}
}

// TestMemoCacheCounters: hits and misses count exactly, per profile.
func TestMemoCacheCounters(t *testing.T) {
	c := NewCache(1 << 30)
	gcc := profileNamed(t, "gcc")
	mcf := profileNamed(t, "mcf")

	c.Generator(gcc) // miss
	c.Generator(gcc) // hit
	c.Generator(gcc) // hit
	c.Generator(mcf) // miss

	st := c.Stats()
	if st.Misses != 2 || st.Hits != 2 || st.Entries != 2 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 2 misses, 2 hits, 2 entries", st)
	}
	if st.Bytes <= 0 {
		t.Errorf("bytes = %d, want > 0", st.Bytes)
	}
}

// TestMemoCacheEviction: the byte budget is enforced by evicting the least
// recently used program, and an over-budget program is simply not retained.
func TestMemoCacheEviction(t *testing.T) {
	gcc := profileNamed(t, "gcc")
	mcf := profileNamed(t, "mcf")

	// Learn the two programs' retained sizes with an unbounded cache.
	probe := NewCache(1 << 30)
	probe.Generator(gcc)
	gccBytes := probe.Stats().Bytes
	probe.Generator(mcf)
	bothBytes := probe.Stats().Bytes
	if gccBytes <= 0 || bothBytes <= gccBytes {
		t.Fatalf("size probe broken: gcc=%d both=%d", gccBytes, bothBytes)
	}

	// A budget one byte short of both forces LRU eviction of gcc when mcf
	// arrives.
	c := NewCache(bothBytes - 1)
	c.Generator(gcc)
	c.Generator(mcf)
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats after over-budget insert = %+v, want 1 eviction / 1 entry", st)
	}
	if st.Bytes > bothBytes-1 {
		t.Errorf("bytes = %d exceeds budget %d", st.Bytes, bothBytes-1)
	}
	c.Generator(gcc) // re-miss: it was evicted
	if st := c.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Errorf("stats after re-request = %+v, want 3 misses / 0 hits", st)
	}

	// MRU protection: the entry just inserted is never evicted, even when it
	// alone exceeds the budget (it is returned but not retained... unless it
	// fits exactly at the front).
	tiny := NewCache(1)
	tiny.Generator(gcc)
	if st := tiny.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("over-budget program was retained: %+v", st)
	}
}

// TestMemoCacheLRUOrder: touching an entry protects it; the stalest entry
// goes first.
func TestMemoCacheLRUOrder(t *testing.T) {
	gcc := profileNamed(t, "gcc")
	mcf := profileNamed(t, "mcf")
	swim := profileNamed(t, "swim")

	gzip := profileNamed(t, "gzip")
	size := func(p Profile) int64 {
		probe := NewCache(1 << 30)
		probe.Generator(p)
		return probe.Stats().Bytes
	}
	bGcc, bMcf, bSwim, bGzip := size(gcc), size(mcf), size(swim), size(gzip)

	// Budget that holds {gcc, mcf, swim}, and holds {gcc, swim, gzip} after
	// evicting exactly the LRU entry (mcf) — whichever of mcf/gzip is larger.
	budget := bGcc + bMcf + bSwim
	if alt := bGcc + bSwim + bGzip; alt > budget {
		budget = alt
	}
	c := NewCache(budget)
	c.Generator(gcc)
	c.Generator(mcf)
	c.Generator(gcc)  // touch gcc -> mcf is now LRU
	c.Generator(swim) // fits, no eviction
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("eviction despite fitting budget: %+v", st)
	}
	// gzip pushes the cache over budget: exactly the LRU entry (mcf) must go.
	c.Generator(gzip)
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats after over-budget insert = %+v, want exactly 1 eviction", st)
	}
	c.Generator(gcc)                   // must still be cached
	if st := c.Stats(); st.Hits != 2 { // the explicit touch + this one
		t.Errorf("gcc was evicted instead of the LRU entry: %+v", st)
	}
}

// TestMemoExpvarPublished: the Shared cache's counters are visible to the
// debug listener and stay JSON-encodable.
func TestMemoExpvarPublished(t *testing.T) {
	v := expvar.Get("hetwire_workload_memo")
	if v == nil {
		t.Fatal("hetwire_workload_memo not published")
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(v.String()), &out); err != nil {
		t.Fatalf("expvar payload not JSON: %v", err)
	}
	for _, k := range []string{"hits", "misses", "evictions", "bytes", "entries"} {
		if _, ok := out[k]; !ok {
			t.Errorf("expvar payload missing %q: %v", k, out)
		}
	}
}
