package core

import (
	"expvar"
	"slices"
	"sync"

	"hetwire/internal/batch"
	"hetwire/internal/bpred"
	"hetwire/internal/cache"
	"hetwire/internal/config"
	"hetwire/internal/sched"
)

// Pooled machines come in two parts, each reused on its own.
//
// The Core part is the memory hierarchy and the branch predictor, which only
// config.Core sizes: 2.23 MiB at Table 1 values, 1.5 MiB of it the 8 MiB L2
// model's tag and LRU arrays. Every configuration with one Core shares these
// parts through one free list, so a sweep over the interconnect holds one
// part per run in flight instead of one per configuration. A part moves to
// its next machine by attaching its port calendars to that machine's
// timeline; Reset then cools it.
//
// The rest — clusters, wheels, calendars, network, LSQ, ROB and register
// state — depends on the whole configuration: 0.10–0.14 MiB at 4 clusters
// and 0.38–0.55 MiB at 16 (TestRestPartBytes bounds it). It stays in one
// sync.Pool per config.Config value, so it is only ever revived for the
// machine it was built for.
//
// Reviving either part with Reset costs O(1) for calendars and caches (a
// cycle base and a set generation move) and keeps the ring sizes the
// machine grew to; a revived machine's results are bit-identical to a new
// one's.

// restPools maps a config.Config value to the *sync.Pool of processors
// built for it, each without its Core part. Keying a map by the Config
// value, rather than boxing it into a sync.Map key, lets a warm round trip
// allocate nothing.
var restPools = struct {
	sync.Mutex
	m map[config.Config]*sync.Pool
}{m: make(map[config.Config]*sync.Pool)}

// restPool returns the configuration's pool, creating it on first use.
func restPool(cfg config.Config) *sync.Pool {
	restPools.Lock()
	defer restPools.Unlock()
	pool := restPools.m[cfg]
	if pool == nil {
		pool = new(sync.Pool)
		restPools.m[cfg] = pool
	}
	return pool
}

// corePart is a Core part idle on the free list.
type corePart struct {
	core config.Core
	mem  *cache.Hierarchy
	bp   *bpred.Predictor
}

// parts is the free list of idle Core parts, shared by every configuration
// and ordered from least to most recently returned. It holds at most
// batch.CPU.Cap() parts, one per CPU token: the batch engine and the
// daemon's workers run each simulation under a token, so that is as many
// parts as their runs can have in flight.
var parts = struct {
	sync.Mutex
	idle                   []corePart
	built, reused, dropped int64
}{idle: make([]corePart, 0, batch.CPU.Cap())}

// takePart lends a Core part for the given Core to the machine whose
// timeline is tl: the most recently returned idle one, or a new one.
func takePart(c config.Core, tl *sched.Timeline) (*cache.Hierarchy, *bpred.Predictor) {
	parts.Lock()
	for i := len(parts.idle) - 1; i >= 0; i-- {
		if parts.idle[i].core == c {
			mem, bp := parts.idle[i].mem, parts.idle[i].bp
			parts.idle = slices.Delete(parts.idle, i, i+1)
			parts.reused++
			parts.Unlock()
			mem.Attach(tl)
			return mem, bp
		}
	}
	parts.built++
	parts.Unlock()
	return newHierarchy(c, tl), newPredictor(c)
}

// givePart returns a Core part to the free list, dropping the least
// recently returned idle part when the list is full.
func givePart(c config.Core, mem *cache.Hierarchy, bp *bpred.Predictor) {
	parts.Lock()
	defer parts.Unlock()
	if len(parts.idle) == cap(parts.idle) {
		parts.idle = slices.Delete(parts.idle, 0, 1)
		parts.dropped++
	}
	parts.idle = append(parts.idle, corePart{core: c, mem: mem, bp: bp})
}

// AcquireScratch returns a run-ready processor for the configuration,
// reviving a pooled one built for an equal configuration when available and
// lending it an idle Core part for an equal Core.
func AcquireScratch(cfg config.Config) *Processor {
	p, _ := restPool(cfg).Get().(*Processor)
	if p == nil {
		p = newMachine(cfg)
	}
	p.mem, p.bp = takePart(cfg.Core, p.fabric)
	p.Reset()
	return p
}

// ReleaseScratch returns a processor from AcquireScratch for the next run:
// its Core part to the free list, the rest to its configuration's pool.
// The caller must not touch the processor afterwards.
func ReleaseScratch(p *Processor) {
	givePart(p.cfg.Core, p.mem, p.bp)
	p.mem, p.bp = nil, nil
	restPool(p.cfg).Put(p)
}

// partBytes estimates the heap a Core part holds: the element payloads of
// its caches (an 8-byte tag and a 4-byte LRU stamp per way, a 4-byte
// generation per set), its TLB, and its predictor tables and BTB. Struct
// headers and the port calendars' rings (2 KiB each at first) are left
// out; TestPartBytes holds the estimate within 1% of what building a part
// allocates.
func partBytes(c config.Core) int64 {
	cacheBytes := func(sizeBytes, assoc int) int64 {
		ways := int64(sizeBytes / c.LineBytes)
		return ways*(8+4) + ways/int64(assoc)*4
	}
	n := cacheBytes(c.L1ISizeKB<<10, c.L1IAssoc) +
		cacheBytes(c.L1DSizeKB<<10, c.L1DAssoc) +
		cacheBytes(c.L2SizeMB<<20, c.L2Assoc) +
		int64(c.TLBEntries)*(8+4)
	n += int64(c.BimodalSize + 4*c.L1PredSize + c.L2PredSize + c.ChooserSize)
	n += int64(c.BTBSets*c.BTBAssoc)*(8+8+1) + int64(max(c.RASEntries, 1))*8
	return n
}

// The free list's counters are published under expvar, next to the program
// memo's, so the hetwired debug listener (-debug-addr) shows what the
// machine pool holds.
func init() {
	expvar.Publish("hetwire_machine_pool", expvar.Func(func() any {
		parts.Lock()
		defer parts.Unlock()
		var idleBytes int64
		for _, e := range parts.idle {
			idleBytes += partBytes(e.core)
		}
		return map[string]any{
			"built":      parts.built,
			"reused":     parts.reused,
			"dropped":    parts.dropped,
			"idle":       len(parts.idle),
			"idle_bytes": idleBytes,
		}
	}))
}
