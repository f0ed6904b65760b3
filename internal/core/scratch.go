package core

import (
	"sync"

	"hetwire/internal/config"
)

// scratchPools maps a config.Config value -> *sync.Pool of *Processor. A
// pooled processor owns every calendar ring, wheel, cache array, predictor
// table and LSQ column it allocated; building one allocates 2.4 MiB at 4
// clusters and about 3 MiB at 16 (the 8 MiB L2 model's tag and LRU arrays
// alone are 1.5 MiB; each calendar starts at 2 KiB), while reviving one
// with Reset costs O(1) for calendars and caches (a cycle base and a set
// generation move), and keeps the ring sizes the machine grew to. The key
// is the whole configuration, so a processor is only ever revived for the
// machine it was built for.
var scratchPools sync.Map

// AcquireScratch returns a run-ready processor for the configuration,
// reviving a pooled one built for an equal configuration when available.
func AcquireScratch(cfg config.Config) *Processor {
	pv, _ := scratchPools.LoadOrStore(cfg, new(sync.Pool))
	if v := pv.(*sync.Pool).Get(); v != nil {
		p := v.(*Processor)
		p.Reset()
		return p
	}
	return New(cfg)
}

// ReleaseScratch returns a processor from AcquireScratch to its
// configuration's pool for the next run. The caller must not touch the
// processor afterwards.
func ReleaseScratch(p *Processor) {
	pv, _ := scratchPools.LoadOrStore(p.cfg, new(sync.Pool))
	pv.(*sync.Pool).Put(p)
}
