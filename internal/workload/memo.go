package workload

import (
	"container/list"
	"expvar"
	"sync"
	"unsafe"

	"hetwire/internal/trace"
)

// Program and stream memoization.
//
// Building a profile's static program (buildProgram) costs far more than
// streaming its first few thousand instructions: block construction, memory
// pattern placement, and the Zipf CDF are O(StaticBlocks + WorkingSet). And
// the dynamic stream itself depends on nothing but the profile: a sweep
// that runs one program on many machines would otherwise draw the same
// instructions one random number at a time on every run. The Cache below
// memoizes both, content-addressed by the full Profile value (Profile is a
// flat comparable struct, so the key *is* the content: two requests share
// an entry exactly when every parameter — seed, mix, locality, address
// offset — is equal, the same condition under which their streams are
// byte-identical).
//
// An entry holds the built program, the dynamic stream's materialised
// prefix in chunks of chunkInstrs instructions, and a generator parked at
// the prefix's end. A Cursor replays the prefix and, on reaching its end,
// has the entry extend it by one chunk, so a prefix only ever covers what
// some run has read. Programs and prefixes have separate byte budgets.
// Programs are evicted least recently used first, each taking its prefix
// with it. Prefixes never displace anything: once their budget is full, no
// prefix grows until an eviction frees room. A cursor whose entry cannot
// grow (the prefix budget is full, or the entry was evicted) continues on a
// private copy of the parked generator, so every cursor emits the same
// stream, and draws past what the memo holds one instruction at a time, as
// it would without replay.
//
// Invalidation contract: entries depend on nothing but the Profile and the
// generator code itself. Profiles are immutable values, so entries can never
// go stale at runtime; the only invalidation is process restart after a
// code change, which the golden corpus re-pins. Eviction is therefore purely
// a memory-budget concern.
//
// Concurrency: programs and prefix chunks are read-only once published
// (the mutable memory-pattern table is cloned per generator; see program),
// so any number of cursors may replay one profile at once; extension is
// serialized per entry. A concurrent miss may build the same program twice;
// both builds are deterministic and identical, so whichever loses the
// insert race is simply dropped.

// DefaultMemoBytes is the Shared cache's program budget: the whole SPEC2K
// suite plus per-thread multiprogrammed variants (a program retains roughly
// 50–400 KiB).
const DefaultMemoBytes = 32 << 20

// DefaultPrefixBytes is the Shared cache's prefix budget: at 48 bytes an
// instruction, about a million instructions, enough to replay every
// program of a suite sweep at tens of thousands of instructions each.
const DefaultPrefixBytes = 48 << 20

// chunkInstrs is the number of instructions a prefix grows by at a time.
const chunkInstrs = 4096

// chunkBytes is the budget charge of one prefix chunk.
const chunkBytes = chunkInstrs * int64(unsafe.Sizeof(trace.Instr{}))

// Shared is the process-wide memo used by NewGenerator.
var Shared = NewCache(DefaultMemoBytes, DefaultPrefixBytes)

// Cache memoizes built programs under a byte budget with LRU eviction, and
// their streams' prefixes under a second budget. The zero value is not
// usable; construct with NewCache.
type Cache struct {
	mu           sync.Mutex
	budget       int64      // for programs
	prefixBudget int64      // for prefixes
	bytes        int64      // programs held
	prefix       int64      // prefixes held
	ll           *list.List // front = most recently used
	entries      map[Profile]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

type memoEntry struct {
	key Profile
	pr  *program
	// prefix and evicted are guarded by Cache.mu.
	prefix  int64 // bytes of chunks charged to the budget
	evicted bool

	mu     sync.Mutex
	chunks [][]trace.Instr // the materialised prefix; guarded by mu
	gen    *Generator      // parked at the end of chunks; guarded by mu
}

// NewCache creates a cache holding at most budget bytes of programs and
// prefixBudget bytes of prefixes. A budget <= 0 disables retention: every
// Generator call builds cold (and counts as a miss) and streams from a
// private generator. A prefixBudget <= 0 keeps programs but replays
// nothing.
func NewCache(budget, prefixBudget int64) *Cache {
	return &Cache{
		budget:       budget,
		prefixBudget: prefixBudget,
		ll:           list.New(),
		entries:      make(map[Profile]*list.Element),
	}
}

// Generator returns a cursor over the profile's deterministic stream,
// attached to its memo entry, which is built (and cached) on a miss.
// Cursors from hits and misses, attached or not, emit the same stream as
// NewGeneratorUncached.
func (c *Cache) Generator(p Profile) *Cursor {
	p = p.normalized()
	c.mu.Lock()
	if el, ok := c.entries[p]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		ent := el.Value.(*memoEntry)
		c.mu.Unlock()
		return &Cursor{name: p.Name, c: c, ent: ent}
	}
	c.misses++
	c.mu.Unlock()

	// Build outside the lock: programs take milliseconds to construct and
	// holding the lock would serialize concurrent cold scenarios. A racing
	// builder may insert first; the duplicate build below is then discarded.
	pr := buildProgram(p)

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[p]; ok {
		return &Cursor{name: p.Name, c: c, ent: el.Value.(*memoEntry)}
	}
	if pr.bytes > c.budget {
		return &Cursor{name: p.Name, own: newFromProgram(p, pr)}
	}
	ent := &memoEntry{key: p, pr: pr, gen: newFromProgram(p, pr)}
	c.entries[p] = c.ll.PushFront(ent)
	c.bytes += pr.bytes
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == c.ll.Front() {
			break // never evict the entry just inserted
		}
		c.evict(back)
	}
	return &Cursor{name: p.Name, c: c, ent: ent}
}

// evict drops an entry from the memo. Cursors already attached to it keep
// replaying its chunks and then continue on their own. Caller holds c.mu.
func (c *Cache) evict(el *list.Element) {
	ent := el.Value.(*memoEntry)
	c.ll.Remove(el)
	delete(c.entries, ent.key)
	c.bytes -= ent.pr.bytes
	c.prefix -= ent.prefix
	ent.evicted = true
	c.evictions++
}

// charge reserves one more chunk of the prefix budget for ent. It evicts
// nothing: it reports false when ent was evicted or the budget is full.
func (c *Cache) charge(ent *memoEntry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent.evicted || c.prefix+chunkBytes > c.prefixBudget {
		return false
	}
	c.prefix += chunkBytes
	ent.prefix += chunkBytes
	return true
}

// chunk returns prefix chunk k of ent, extending the prefix when k is the
// next one (cursors ask for chunks in order, so k never skips ahead). When
// the prefix cannot grow it returns instead a private copy of the parked
// generator, which is positioned at chunk k's first instruction.
func (c *Cache) chunk(ent *memoEntry, k int) ([]trace.Instr, *Generator) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if k < len(ent.chunks) {
		return ent.chunks[k], nil
	}
	if !c.charge(ent) {
		return nil, ent.gen.clone()
	}
	buf := make([]trace.Instr, chunkInstrs)
	for i := range buf {
		ent.gen.Next(&buf[i])
	}
	ent.chunks = append(ent.chunks, buf)
	return buf, nil
}

// Cursor replays a profile's dynamic instruction stream. It implements
// trace.Stream; like the generator it replays, it never ends. Not safe for
// concurrent use, but any number of cursors may share one memo entry.
type Cursor struct {
	name string
	cur  []trace.Instr // the chunk being replayed
	pos  int           // next instruction in cur
	next int           // index of the chunk after cur
	c    *Cache
	ent  *memoEntry // nil once the cursor streams from own
	own  *Generator
}

// Name returns the profile name, so consumers can label results produced
// from this stream.
func (r *Cursor) Name() string { return r.name }

// Next implements trace.Stream.
func (r *Cursor) Next(ins *trace.Instr) bool {
	if r.pos < len(r.cur) {
		*ins = r.cur[r.pos]
		r.pos++
		return true
	}
	if r.ent != nil {
		r.cur, r.own = r.c.chunk(r.ent, r.next)
		r.next++
		if r.own == nil {
			*ins = r.cur[0]
			r.pos = 1
			return true
		}
		r.ent = nil
	}
	return r.own.Next(ins)
}

// MemoStats is a point-in-time readout of a Cache.
type MemoStats struct {
	Hits, Misses, Evictions uint64
	// Bytes counts programs, PrefixBytes their prefixes.
	Bytes, PrefixBytes int64
	Entries            int
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() MemoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return MemoStats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Bytes:       c.bytes,
		PrefixBytes: c.prefix,
		Entries:     len(c.entries),
	}
}

// sizeBytes estimates the heap retained by a program: slice headers are
// ignored (constant noise), element payloads dominate.
func (pr *program) sizeBytes() int64 {
	n := int64(unsafe.Sizeof(*pr))
	n += int64(len(pr.mems)) * int64(unsafe.Sizeof(memPattern{}))
	n += int64(pr.zipf.TableLen()) * 8
	for i := range pr.blocks {
		n += int64(unsafe.Sizeof(staticBlock{}))
		n += int64(len(pr.blocks[i].instrs)) * int64(unsafe.Sizeof(staticInstr{}))
	}
	return n
}

// The Shared cache's counters are published under expvar so the hetwired
// debug listener (-debug-addr) exposes memo effectiveness alongside the
// runtime's own variables.
func init() {
	expvar.Publish("hetwire_workload_memo", expvar.Func(func() any {
		st := Shared.Stats()
		return map[string]any{
			"hits":         st.Hits,
			"misses":       st.Misses,
			"evictions":    st.Evictions,
			"bytes":        st.Bytes,
			"prefix_bytes": st.PrefixBytes,
			"entries":      st.Entries,
		}
	}))
}
