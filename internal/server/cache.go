package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"hetwire/internal/obs/flight"
	"hetwire/internal/wire"
)

// Cache is a content-addressed result cache with LRU eviction under a byte
// budget and in-flight deduplication: concurrent requests for the same key
// coalesce onto one computation instead of simulating twice. Keys are the
// canonical request hashes from hetwire.RunRequest.CacheKey, so a hit is
// guaranteed to be byte-identical to what re-running the request would
// produce (simulations are deterministic).
//
// Entries carry a SHA-256 of their body taken at insert time; every hit is
// verified against it, and an entry whose bytes no longer match (bit-rot, or
// the fault-injection harness) is silently dropped and recomputed — the
// cache self-heals rather than serving corrupt results. An entry may also
// hold the JSON view of its result frame (see View), charged to the same
// budget and evicted with it.
type Cache struct {
	mu       sync.Mutex
	budget   int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*inflightCall

	// flight receives cache_corrupt events when a checksum-failed entry is
	// dropped; nil-safe.
	flight *flight.Recorder

	// Admission counts each scenario once, as a hit or a miss; Do counts
	// only the misses another caller's computation answered.
	hits       uint64 // found stored at admission
	coalesced  uint64 // Do calls answered without computing
	misses     uint64 // not found stored at admission
	evictions  uint64
	corruption uint64 // entries dropped on checksum mismatch
}

type cacheEntry struct {
	key  string
	body []byte
	sum  [sha256.Size]byte
	view []byte // the JSON view of body, once View has rendered it
}

// inflightCall is one in-progress computation; waiters block on done.
type inflightCall struct {
	done chan struct{}
	body []byte
	err  error
}

// NewCache creates a cache holding at most budget bytes of response bodies.
// A budget <= 0 disables storage (every request computes) but keeps
// in-flight deduplication.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:   budget,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*inflightCall),
	}
}

// setFlight attaches the flight recorder (nil keeps recording disabled).
func (c *Cache) setFlight(fr *flight.Recorder) { c.flight = fr }

// Do returns the cached body for key, or computes it. The hit result is
// true when the body was served without running compute in this call —
// either from the store or by coalescing onto another caller's in-flight
// computation — and such a call counts as coalesced. Do counts no hit or
// miss: admission (lookup) already counted its key. Returned bodies are
// shared; callers must not mutate them.
//
// ctx governs only the waiting: a caller coalesced onto another flight stops
// waiting when ctx is cancelled. And when the flight it waited on fails with
// the *computing* job's context error, a still-live waiter retries the
// computation itself instead of inheriting a cancellation that was never
// meant for it.
func (c *Cache) Do(ctx context.Context, key string, compute func() ([]byte, error)) (body []byte, hit bool, err error) {
	joined := false // counted as coalesced already
	for {
		c.mu.Lock()
		if body, ok := c.lookupLocked(key); ok {
			if !joined {
				c.coalesced++
			}
			c.mu.Unlock()
			return body, true, nil
		}
		if f, ok := c.inflight[key]; ok {
			if !joined {
				c.coalesced++
				joined = true
			}
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if isContextError(f.err) && ctx.Err() == nil {
				continue // the computer was cancelled, we were not: retry
			}
			return f.body, true, f.err
		}
		f := &inflightCall{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		c.fill(key, f, compute)
		return f.body, false, f.err
	}
}

// fill runs compute for flight f, then unregisters the flight, stores a
// successful body, and releases the coalesced waiters. A panicking compute
// must not wedge its key: the waiters get an error naming the panic, the
// next Do for the key computes afresh, and the panic is re-raised for the
// caller's containment (batch.Run per scenario, the worker per job) to
// report.
func (c *Cache) fill(key string, f *inflightCall, compute func() ([]byte, error)) {
	defer func() {
		r := recover()
		if r != nil {
			f.body, f.err = nil, fmt.Errorf("server: result computation panicked: %v", r)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.insert(key, f.body)
		}
		c.mu.Unlock()
		close(f.done)
		if r != nil {
			panic(r)
		}
	}()
	f.body, f.err = compute()
}

// isContextError reports whether err is a context cancellation or deadline
// error (possibly wrapped).
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// lookup returns the stored body for key without computing on a miss; it
// is how admission answers a request from the cache. It counts the key once,
// as a hit or a miss, so every admitted scenario enters the hit ratio once,
// whether a worker or a cluster node resolves its miss.
func (c *Cache) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, ok := c.lookupLocked(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return body, ok
}

// lookupLocked is the one stored-entry check, shared by admission and Do: a
// found entry is verified against its insert-time checksum, and a corrupt
// one is dropped and reported as a miss. Called with c.mu held.
func (c *Cache) lookupLocked(key string) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if sha256.Sum256(ent.body) != ent.sum {
		c.removeLocked(el)
		c.corruption++
		c.flight.Record(flight.Event{Kind: flight.KindCacheCorrupt, Detail: key})
		return nil, false
	}
	c.ll.MoveToFront(el)
	return ent.body, true
}

// View returns the JSON view of frame, the run-result frame stored under
// key. The first call for an entry renders the view and keeps it with the
// entry, charged to the byte budget and evicted with it; later calls copy
// no bytes and decode nothing. rendered reports whether this call did the
// decode. A frame whose entry is gone (evicted, or never stored) is
// rendered and not kept.
func (c *Cache) View(key string, frame []byte) (view []byte, rendered bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		if v := el.Value.(*cacheEntry).view; v != nil {
			c.mu.Unlock()
			return v, false, nil
		}
	}
	c.mu.Unlock()
	if view, err = runJSON(frame); err != nil {
		return nil, true, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.view != nil { // a concurrent render got there first
			return ent.view, true, nil
		}
		ent.view = view
		c.bytes += int64(len(view))
		c.evictLocked()
	}
	return view, true, nil
}

// runJSON renders a run-result frame as the JSON RunResponse.
func runJSON(frame []byte) ([]byte, error) {
	resp, err := wire.DecodeRunResult(frame)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// Put stores a body under key without running a computation: how a
// coordinator stores a result a cluster node uploaded. The body is copied
// so the caller may reuse its buffer. An empty key or body is ignored.
func (c *Cache) Put(key string, body []byte) {
	if key == "" || len(body) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, append([]byte(nil), body...))
}

// CorruptEntry deterministically flips one byte of the stored copy of key's
// body (fault injection). The stored body is replaced with a mutated copy so
// slices already handed to callers stay intact. Returns false when the key
// is not resident.
func (c *Cache) CorruptEntry(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	ent := el.Value.(*cacheEntry)
	if len(ent.body) == 0 {
		return false
	}
	mutated := append([]byte(nil), ent.body...)
	mutated[len(mutated)/2] ^= 0xff
	ent.body = mutated
	return true
}

// insert stores the body and evicts LRU entries past the byte budget.
// Bodies larger than the whole budget are not stored at all — evicting the
// entire cache for one oversized response would be strictly worse.
// Called with c.mu held.
func (c *Cache) insert(key string, body []byte) {
	size := int64(len(body))
	if size > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok { // lost a race with an identical insert
		c.removeLocked(el)
	}
	ent := &cacheEntry{key: key, body: body, sum: sha256.Sum256(body)}
	c.entries[key] = c.ll.PushFront(ent)
	c.bytes += size
	c.evictLocked()
}

// evictLocked evicts least-recently-used entries until the cache fits its
// budget. Called with c.mu held.
func (c *Cache) evictLocked() {
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// removeLocked unlinks one entry and releases its bytes, view included.
// Called with c.mu held.
func (c *Cache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.entries, ent.key)
	c.bytes -= int64(len(ent.body) + len(ent.view))
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries   int
	Bytes     int64
	Budget    int64
	Hits      uint64 // admitted scenarios found stored
	Coalesced uint64 // misses answered by another caller's computation
	Misses    uint64 // admitted scenarios not found stored
	Evictions uint64
	// Corrupt counts entries dropped because their bytes stopped matching
	// the insert-time checksum.
	Corrupt uint64
}

// HitRatio returns the share of admitted scenarios answered without a
// fresh simulation: stored hits plus coalesced misses, over hits and misses.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Budget:    c.budget,
		Hits:      c.hits,
		Coalesced: c.coalesced,
		Misses:    c.misses,
		Evictions: c.evictions,
		Corrupt:   c.corruption,
	}
}
