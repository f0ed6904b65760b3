package core

import (
	"hetwire/internal/config"
)

// lsqStore is one in-flight store on its way into the centralized
// load/store queue (the store's commit time is known only after the commit
// stage, so the entry is staged in the Processor and registered then).
type lsqStore struct {
	addr      uint64
	partialAt uint64 // LS address bits known at the LSQ (L-wire pipeline)
	fullAt    uint64 // full address known at the LSQ
	dataAt    uint64 // store data available at the LSQ
	commitAt  uint64 // store leaves the LSQ
}

// lsqState models the centralized LSQ: memory disambiguation against
// earlier in-flight stores, with either full-address comparison (baseline)
// or the paper's partial-address (LS-bit) early comparison.
//
// In-flight stores live in struct-of-arrays layout: the disambiguation scans
// — the hottest loops in the LSQ — each stream through only the columns they
// compare (commit time, then full-arrival/word or partial bits), one value
// per 8 bytes of cache line instead of one per 48-byte struct. The word and
// LS-bit comparison keys are precomputed at insertion.
//
// Program order needs no explicit sequence check during disambiguation:
// stores are registered at the commit stage of their own instruction, so
// every resident entry is program-order-earlier than any load that queries
// afterwards. (Loads never enter the structure.)
type lsqState struct {
	words     []uint64 // 8-byte-word address, addr>>3
	partials  []uint64 // LS comparison bits of the word address
	partialAt []uint64
	fullAt    []uint64
	dataAt    []uint64
	commitAt  []uint64
	lsMask    uint64
	seq       uint64
}

func newLSQ(cfg config.Config) *lsqState {
	bits := cfg.Tech.LSBits
	if bits == 0 {
		bits = 8
	}
	return &lsqState{lsMask: 1<<uint(bits) - 1}
}

// word returns the 8-byte-word address used for dependence comparison.
func word(addr uint64) uint64 { return addr >> 3 }

// depth returns the number of in-flight stores resident in the queue.
func (l *lsqState) depth() int { return len(l.commitAt) }

// prune drops stores that left the LSQ well before the given time. The
// generous margin keeps pruning safe even though out-of-order address
// generation makes arrival times only roughly monotone.
//
// Stores arrive in program order with commit times granted by the commit
// calendar under monotone requests, so the queue is sorted by commitAt and
// the expired entries form a prefix: scan until the first survivor instead
// of filtering the whole queue on every store dispatch.
func (l *lsqState) prune(before uint64) {
	const margin = 2048
	if before < margin {
		return
	}
	cutoff := before - margin
	i := 0
	for i < len(l.commitAt) && l.commitAt[i] <= cutoff {
		i++
	}
	if i > 0 {
		l.words = l.words[:copy(l.words, l.words[i:])]
		l.partials = l.partials[:copy(l.partials, l.partials[i:])]
		l.partialAt = l.partialAt[:copy(l.partialAt, l.partialAt[i:])]
		l.fullAt = l.fullAt[:copy(l.fullAt, l.fullAt[i:])]
		l.dataAt = l.dataAt[:copy(l.dataAt, l.dataAt[i:])]
		l.commitAt = l.commitAt[:copy(l.commitAt, l.commitAt[i:])]
	}
}

// addStore registers an in-flight store. Stores are added in program order.
func (l *lsqState) addStore(st lsqStore) {
	l.prune(st.partialAt)
	w := word(st.addr)
	l.words = append(l.words, w)
	l.partials = append(l.partials, w&l.lsMask)
	l.partialAt = append(l.partialAt, st.partialAt)
	l.fullAt = append(l.fullAt, st.fullAt)
	l.dataAt = append(l.dataAt, st.dataAt)
	l.commitAt = append(l.commitAt, st.commitAt)
}

// reset empties the queue (keeping column storage) and rewinds sequencing.
func (l *lsqState) reset() {
	l.words = l.words[:0]
	l.partials = l.partials[:0]
	l.partialAt = l.partialAt[:0]
	l.fullAt = l.fullAt[:0]
	l.dataAt = l.dataAt[:0]
	l.commitAt = l.commitAt[:0]
	l.seq = 0
}

// nextSeq hands out program-order sequence numbers.
func (l *lsqState) nextSeq() uint64 {
	l.seq++
	return l.seq
}

// firstInFlight returns the index of the first store still resident at the
// given cycle. The queue is sorted by commitAt (commit-calendar grants under
// monotone requests), so the retired entries form a prefix that a binary
// search skips in one step instead of a per-entry test in the scan loops.
func (l *lsqState) firstInFlight(at uint64) int {
	lo, hi := 0, len(l.commitAt)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.commitAt[mid] <= at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// loadTiming is the disambiguation result for one load.
type loadTiming struct {
	// start is the cycle at which the load is free of memory-dependence
	// constraints and may access the cache (full-address path), or at which
	// the partial comparison cleared it (partial path).
	start uint64
	// indexReady is when cache RAM indexing may begin (early on the L-wire
	// path).
	indexReady uint64
	// forwarded: an earlier store to the same word supplies the data.
	forwarded bool
	// dataAt: when forwarded data is available (valid when forwarded).
	dataAt uint64
	// falseDep: the partial comparison matched but the full addresses
	// differ (paper: <9% of loads with 8 LS bits).
	falseDep bool
	// partialChecked: the partial path performed a comparison.
	partialChecked bool
}

// disambiguateFull is the baseline LSQ pipeline: the load waits for its own
// full address and for the full addresses of all earlier in-flight stores,
// then either forwards from a matching store or proceeds to the cache.
func (l *lsqState) disambiguateFull(addr uint64, addrAt uint64) loadTiming {
	t := loadTiming{start: addrAt, indexReady: addrAt}
	w := word(addr)
	n := len(l.commitAt)
	lo := l.firstInFlight(addrAt)
	fullAt, words, dataAt := l.fullAt[lo:n], l.words[lo:n], l.dataAt[lo:n]
	for i := range fullAt {
		if f := fullAt[i]; f > t.start {
			t.start = f
		}
		if words[i] == w {
			t.forwarded = true
			if d := dataAt[i]; d > t.dataAt {
				t.dataAt = d
			}
		}
	}
	t.indexReady = t.start
	if t.forwarded {
		if t.dataAt < t.start {
			t.dataAt = t.start
		}
		t.dataAt++ // forwarding mux
	}
	return t
}

// disambiguatePartial is the paper's accelerated pipeline: the LS bits
// (arriving early on L-wires) are compared against the LS bits of earlier
// stores. No match => the load is dependence-free and cache RAM access
// begins immediately; a match requires the full addresses (arriving on
// B-wires) of the matching stores before resolution.
func (l *lsqState) disambiguatePartial(addr uint64, lsAt, fullAt uint64) loadTiming {
	t := loadTiming{partialChecked: true}
	w := word(addr)
	pw := w & l.lsMask
	partialStart := lsAt
	anyMatch := false
	resolveAt := fullAt
	n := len(l.commitAt)
	lo := l.firstInFlight(lsAt)
	partials, partialAts, fullAts, words, dataAts := l.partials[lo:n], l.partialAt[lo:n], l.fullAt[lo:n], l.words[lo:n], l.dataAt[lo:n]
	for i := range partials {
		if pa := partialAts[i]; pa > partialStart {
			partialStart = pa
		}
		if partials[i] == pw {
			anyMatch = true
			if f := fullAts[i]; f > resolveAt {
				resolveAt = f
			}
			if words[i] == w {
				t.forwarded = true
				if d := dataAts[i]; d > t.dataAt {
					t.dataAt = d
				}
			}
		}
	}
	if !anyMatch {
		// Dependence-free: RAM access starts as soon as the LS bits and the
		// earlier stores' LS bits are in; the full address (needed only for
		// the final tag compare) arrives on B-wires.
		t.start = fullAt
		t.indexReady = partialStart
		return t
	}
	// Partial match: wait for the full addresses of the matching stores.
	t.start = resolveAt
	t.indexReady = partialStart // RAM banks were prefetched speculatively
	if t.forwarded {
		if t.dataAt < t.start {
			t.dataAt = t.start
		}
		t.dataAt++
	} else {
		t.falseDep = true
	}
	return t
}
