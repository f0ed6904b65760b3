// Package core implements the paper's evaluation platform: a dynamically
// scheduled partitioned (clustered) processor with a centralized load/store
// queue and L1 data cache, connected by the heterogeneous interconnect of
// internal/noc.
//
// The engine is a timestamp+calendar cycle-level model: instructions are
// processed in program order, and every structural resource — fetch
// bandwidth, the 64-entry fetch queue, dispatch bandwidth, the 480-entry
// ROB, per-cluster 15-entry issue queues and 32-entry rename register pools,
// per-cluster functional units, cache bank ports, and every per-class
// directional network link — is a cycle calendar or bounded-occupancy pool
// that grants each event the earliest feasible cycle. This models
// out-of-order issue, buffered link contention and in-order commit exactly,
// while staying deterministic. Wrong-path instructions are not simulated
// (the standard trace-driven approximation); the mispredict penalty,
// including the network latency of the resolution signal back to the front
// end, is modeled explicitly.
package core

import (
	"context"

	"hetwire/internal/bpred"
	"hetwire/internal/cache"
	"hetwire/internal/config"
	"hetwire/internal/narrow"
	"hetwire/internal/noc"
	"hetwire/internal/sched"
	"hetwire/internal/trace"
	"hetwire/internal/wires"
)

// fuKind indexes the per-cluster functional units.
type fuKind int

const (
	fuIntALU fuKind = iota
	fuIntMul
	fuFPALU
	fuFPMul
	numFUKinds
)

func fuFor(op trace.Op) fuKind {
	switch op {
	case trace.IntMul:
		return fuIntMul
	case trace.FPALU:
		return fuFPALU
	case trace.FPMul:
		return fuFPMul
	default: // int ALU ops, branches, and load/store address generation
		return fuIntALU
	}
}

// maxClusters is the largest cluster count any topology provides (the
// 16-cluster hierarchical ring); fixed-size per-register arrays are sized by
// it so renaming allocates nothing per register.
const maxClusters = 16

// xferAction is a precomputed operand-transfer decision: which arm of the
// paper's wire-class ladder a transfer takes, as a function of the three
// per-operand bits (predicted-narrow, actually-narrow, ready-early) and the
// configuration. The dynamic parts of the ladder — frequent-value lookup and
// the PreferB/PreferPW congestion checks — stay runtime checks layered on
// top; everything configuration-static is folded into the 8-entry table.
type xferAction uint8

const (
	xWide       xferAction = iota // full-width transfer on the wide plane (with load-balance diversion)
	xNarrowL                      // predicted and actually narrow: L-wires
	xNarrowMiss                   // predicted narrow, actually wide: wasted L send + resend
	xReadyPW                      // ready-operand diversion candidate (criterion 1)
)

// cluster bundles one cluster's resources.
type cluster struct {
	intIQ   *sched.Wheel // 15 int issue-queue entries
	fpIQ    *sched.Wheel
	intRegs *sched.Wheel // 32 int rename registers
	fpRegs  *sched.Wheel
	fus     [numFUKinds]*sched.Calendar
}

// Processor is the simulated machine. Construct with New; drive with Run.
type Processor struct {
	cfg config.Config
	net *noc.Network
	mem *cache.Hierarchy
	bp  *bpred.Predictor
	np  *narrow.Predictor
	fvt *narrow.FrequentValueTable

	nClusters int
	clusters  []cluster

	// Front end.
	fetchCal    *sched.Calendar // fetch bandwidth: FetchWidth/cycle
	fetchQ      *sched.Wheel    // 64 entries, freed at dispatch
	dispatchCal *sched.Calendar // DispatchWidth/cycle
	commitCal   *sched.Calendar // CommitWidth/cycle
	rob         []uint64        // ring of commit times, ROBSize entries
	robPos      int

	// tl is the timeline of the processor's own calendars: tl.Floor is the
	// monotone fetch frontier (in-order fetch). fabric is the timeline of
	// the network's and memory's calendars: &tl, or a shared fabric's.
	tl     sched.Timeline
	fabric *sched.Timeline

	lastDispatch uint64
	lastCommit   uint64
	redirectAt   uint64 // earliest fetch cycle after a mispredict redirect
	curFetchLine uint64 // current I-cache line, for fetch-access modelling

	// Basic-block fetch limiting (MaxBlocksFetch blocks per cycle).
	pendingBlockStart bool
	blkCycle          uint64
	blkCount          int

	// Store awaiting its commit time before entering the LSQ books.
	pendingStore     lsqStore
	havePendingStore bool

	// Architectural-register state in struct-of-arrays layout: the steering
	// and operand loops touch only the one or two fields they need, so each
	// lookup reads one contiguous cache line of the field it wants instead of
	// striding across 176-byte per-register structs.
	regCluster    [trace.NumArchRegs]uint8  // cluster holding the value
	regReady      [trace.NumArchRegs]uint64 // cycle the value is ready there
	regValue      [trace.NumArchRegs]uint64
	regNarrow     [trace.NumArchRegs]uint8 // 0/1: value fits NarrowMaxBits
	regPredNarrow [trace.NumArchRegs]uint8 // 0/1: predictor's (or oracle's) call
	// regGen is bumped on every writeback; the arrived cache below is valid
	// only for matching generations, which invalidates all per-cluster copy
	// times of the overwritten mapping in one increment instead of a 128-byte
	// clear per renamed destination.
	regGen     [trace.NumArchRegs]uint32
	arrivedAt  [trace.NumArchRegs * maxClusters]uint64 // per-(reg,cluster) copy arrival
	arrivedGen [trace.NumArchRegs * maxClusters]uint32

	lsq *lsqState

	steerRR int // round-robin tiebreaker for steering

	// Cached per-cluster free counts at one dispatch cycle, refreshed lazily
	// per register type when the dispatch frontier moves and patched in place
	// as dispatch books entries. The steering weight loop and the resource
	// fallback read these flat rows instead of polling every cluster's wheels
	// (16 pointer-chasing queries per steered instruction otherwise).
	// Index [0] is the integer row, [1] the floating-point row; the At stamps
	// hold the cycle each row reflects (^0 = never refreshed).
	freeIQAt   [2]uint64
	freeRegsAt [2]uint64
	freeIQ     [2][maxClusters]int32
	freeRegs   [2][maxClusters]int32

	// Configuration-derived constants hoisted out of the per-instruction
	// loop (see initDerived).
	hasB        bool
	wideCls     wires.Class // B when present, else the homogeneous PW plane
	mispredCls  wires.Class
	fvEnabled   bool
	balanceOn   bool
	pwStoreData bool
	lwirePipe   bool
	criticalOnL bool
	narrowOrcl  bool
	narrowOps   bool
	narrowMax   int
	xferTab     [8]xferAction // index: predNarrow<<2 | narrow<<1 | readyEarly

	// allowed restricts steering to a cluster subset (multiprogrammed
	// threads); nil means all clusters. all caches the full index list.
	allowed []int
	all     []int

	// statsBase is the commit-frontier cycle at the last stats reset;
	// Cycles reports lastCommit - statsBase.
	statsBase uint64

	// Observer, when non-nil, receives the resolved timing of every
	// instruction — the per-stage timeline a hardware pipeline viewer
	// would show. Used by debugging tools and tests; nil costs nothing.
	Observer func(InstrTiming)

	// probe, when non-nil, receives read-only interval samples every
	// ProbeInterval committed instructions (see SetProbe). Checked only on
	// the context-poll cadence, never in the per-instruction loop.
	probe Probe

	// Statistics.
	s Stats
}

// InstrTiming is the resolved pipeline timeline of one instruction.
type InstrTiming struct {
	Seq      uint64
	PC       uint64
	Op       trace.Op
	Cluster  int
	Fetch    uint64
	Dispatch uint64
	Issue    uint64
	Complete uint64
	Commit   uint64
	Mispred  bool
}

// Stats aggregates everything the experiments read out of a run.
type Stats struct {
	Instructions uint64
	Cycles       uint64

	Branches       uint64
	Mispredicts    uint64
	BTBMisses      uint64
	Loads          uint64
	Stores         uint64
	L1DMissRate    float64
	L2MissRate     float64
	TLBMissRate    float64
	BranchAccuracy float64

	// Inter-cluster operand communication.
	OperandTransfers   uint64 // producer cluster != consumer cluster
	LocalOperands      uint64
	NarrowTransfers    uint64 // operand copies that rode L-wires
	NarrowMispredicted uint64 // predicted narrow, actually wide (resend)
	ReadyOperandPW     uint64 // criterion 1 diversions
	StoreDataPW        uint64 // criterion 2 diversions
	BalancePW          uint64 // criterion 3 diversions
	NarrowEligible     uint64 // transfers whose value was actually narrow
	FVTransfers        uint64 // transfers compacted by the frequent-value table
	CriticalWordOnL    uint64 // L2/memory loads returned on L-wires

	// LSQ behaviour.
	PartialFalseDeps uint64 // LS-bit match, full-address mismatch
	PartialChecks    uint64
	StoreForwards    uint64

	// Network.
	Net           [3]noc.ClassStats // B, PW, L
	WaitCycles    uint64
	LinkInventory map[wires.Class]float64

	// CalendarClamps is always zero. Calendars are exact by construction
	// (a run that cannot stay exact fails with CalendarError instead); the
	// field stays because it is part of every ResultHash and of the wire
	// format.
	CalendarClamps uint64

	// Latency breakdown diagnostics (cycle sums; divide by Instructions).
	SumDispatchStall uint64 // dispatch beyond fetch+frontDepth (window stalls)
	SumSrcWait       uint64 // operand wait beyond dispatch+1
	SumFUWait        uint64 // issue wait beyond operand readiness
	SumLoadLatency   uint64 // load execDone -> data back in cluster
	SumLSQWait       uint64 // load address arrival -> disambiguated start
	SumStoreAddrLag  uint64 // store dispatch -> full address at LSQ
	MaxStoreAddrLag  uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// New builds a processor for the configuration.
func New(cfg config.Config) *Processor {
	p := newMachine(cfg)
	p.mem, p.bp = newHierarchy(cfg.Core, p.fabric), newPredictor(cfg.Core)
	return p
}

// newMachine builds a processor that owns its network and timeline but has
// no memory hierarchy or branch predictor yet. Those two are its Core part:
// only cfg.Core sizes them, so New builds them for the one machine while
// AcquireScratch lends them to any machine of the same Core.
func newMachine(cfg config.Config) *Processor {
	p := newCore(cfg)
	p.fabric = &p.tl
	p.net = noc.New(cfg, p.fabric)
	return p
}

// newCore builds everything but the network, the memory hierarchy and the
// branch predictor. A processor owns the network (New) or shares it and the
// memory hierarchy with sibling threads (NewOnFabric). Every private
// calendar lives on the processor's timeline, whose floor is its fetch
// frontier: each booking step makes is at or after the instruction's fetch
// request, which is at or after the previous fetch.
func newCore(cfg config.Config) *Processor {
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	if cfg.Topology.Clusters() > maxClusters {
		panic("core: topology exceeds maxClusters")
	}
	c := cfg.Core
	p := &Processor{
		cfg:       cfg,
		nClusters: cfg.Topology.Clusters(),
		np:        narrow.NewPredictor(c.NarrowPredSz),
		fvt:       narrow.NewFrequentValueTable(),
		fetchQ:    sched.NewWheel(c.FetchQueueSize),
		rob:       make([]uint64, c.ROBSize),
		lsq:       newLSQ(cfg),
	}
	p.fetchCal = sched.NewCalendar(c.FetchWidth, &p.tl)
	p.dispatchCal = sched.NewCalendar(c.DispatchWidth, &p.tl)
	p.commitCal = sched.NewCalendar(c.CommitWidth, &p.tl)
	fuCount := [numFUKinds]int{fuIntALU: c.IntALUs, fuIntMul: c.IntMulDiv, fuFPALU: c.FPALUs, fuFPMul: c.FPMulDiv}
	p.clusters = make([]cluster, p.nClusters)
	for i := range p.clusters {
		cl := &p.clusters[i]
		cl.intIQ = sched.NewWheel(c.IssueQPerClust)
		cl.fpIQ = sched.NewWheel(c.IssueQPerClust)
		cl.intRegs = sched.NewWheel(c.RegsPerClust)
		cl.fpRegs = sched.NewWheel(c.RegsPerClust)
		for k := range cl.fus {
			cl.fus[k] = sched.NewCalendar(fuCount[k], &p.tl)
		}
	}
	for r := range p.regCluster {
		p.regCluster[r] = uint8(r % p.nClusters)
		p.regGen[r] = 1 // arrivedGen zero-state must mismatch: no copies cached
	}
	p.freeIQAt = [2]uint64{^uint64(0), ^uint64(0)}
	p.freeRegsAt = p.freeIQAt
	p.initDerived()
	return p
}

// newPredictor builds the core's branch predictor.
func newPredictor(c config.Core) *bpred.Predictor {
	return bpred.New(bpred.Config{
		BimodalSize: c.BimodalSize,
		L1Size:      c.L1PredSize,
		HistoryBits: c.HistoryBits,
		L2Size:      c.L2PredSize,
		ChooserSize: c.ChooserSize,
		BTBSets:     c.BTBSets,
		BTBAssoc:    c.BTBAssoc,
		RASEntries:  c.RASEntries,
	})
}

// newHierarchy builds the core's memory hierarchy, its port calendars on the
// given timeline.
func newHierarchy(c config.Core, tl *sched.Timeline) *cache.Hierarchy {
	return cache.NewHierarchy(cache.HierarchyConfig{
		L1I:        cache.Config{SizeBytes: c.L1ISizeKB * 1024, LineBytes: c.LineBytes, Assoc: c.L1IAssoc, Latency: c.L1ILatency},
		L1D:        cache.Config{SizeBytes: c.L1DSizeKB * 1024, LineBytes: c.LineBytes, Assoc: c.L1DAssoc, Latency: c.L1DLatency, Banks: c.L1DBanks, Ports: c.L1DPorts},
		L2:         cache.Config{SizeBytes: c.L2SizeMB * 1024 * 1024, LineBytes: c.LineBytes, Assoc: c.L2Assoc, Latency: c.L2Latency},
		TLBEntries: c.TLBEntries,
		PageBytes:  c.PageBytes,
		MemLatency: c.MemLatency,
	}, tl)
}

// initDerived hoists every configuration-static decision of the transfer
// ladders out of the per-instruction loop: scalar class choices, feature
// flags, and the 8-entry operand-transfer action table indexed by the packed
// (predicted-narrow, narrow, ready-early) bits. The table preserves the
// ladder's priority order exactly; the frequent-value arm and the congestion
// checks remain dynamic and are layered on top in operandReady.
func (p *Processor) initDerived() {
	t := &p.cfg.Tech
	p.hasB = p.cfg.Model.Link.Has(wires.B)
	p.wideCls = wires.B
	if !p.hasB {
		p.wideCls = wires.PW
	}
	p.mispredCls = p.wideCls
	if t.MispredictOnL {
		p.mispredCls = wires.L
	}
	p.fvEnabled = t.FrequentValueEnc
	p.balanceOn = t.PWLoadBalance
	p.pwStoreData = t.PWStoreData
	p.lwirePipe = t.LWireCachePipeline
	p.criticalOnL = t.CriticalWordOnL
	p.narrowOrcl = t.NarrowOracle
	p.narrowOps = t.NarrowOperands
	p.narrowMax = p.cfg.Core.NarrowMaxBits
	for idx := range p.xferTab {
		pn, nw, re := idx&4 != 0, idx&2 != 0, idx&1 != 0
		a := xWide
		switch {
		case t.NarrowOperands && pn && nw:
			a = xNarrowL
		case t.NarrowOperands && pn && !nw:
			a = xNarrowMiss
		case t.PWReadyOperands && re:
			a = xReadyPW
		}
		p.xferTab[idx] = a
	}
}

// Reset restores the processor to the state New returns, reusing every
// allocation: calendars and wheels are rewound, caches and predictors
// cooled, the LSQ emptied, and the architectural registers re-seeded with
// their round-robin home clusters. A reset processor produces bit-identical
// results to a freshly constructed one (pinned by TestProcessorResetReplay),
// which is what lets AcquireScratch pool processors and their Core parts
// across runs.
//
// Reset is only valid on processors that own their network (New,
// AcquireScratch): fabric-attached processors (NewOnFabric) share their
// network and memory hierarchy with sibling threads and must not rewind
// them unilaterally.
func (p *Processor) Reset() {
	p.net.Reset()
	p.mem.Reset()
	p.bp.Reset()
	p.np.Reset()
	p.fvt.Reset()

	p.fetchCal.Reset()
	p.fetchQ.Reset()
	p.dispatchCal.Reset()
	p.commitCal.Reset()
	clear(p.rob)
	p.robPos = 0
	for i := range p.clusters {
		cl := &p.clusters[i]
		cl.intIQ.Reset()
		cl.fpIQ.Reset()
		cl.intRegs.Reset()
		cl.fpRegs.Reset()
		for _, fu := range cl.fus {
			fu.Reset()
		}
	}

	p.tl = sched.Timeline{}
	p.lastDispatch, p.lastCommit = 0, 0
	p.redirectAt, p.curFetchLine = 0, 0
	p.pendingBlockStart, p.blkCycle, p.blkCount = false, 0, 0
	p.pendingStore, p.havePendingStore = lsqStore{}, false

	for r := range p.regCluster {
		p.regCluster[r] = uint8(r % p.nClusters)
		p.regReady[r], p.regValue[r] = 0, 0
		p.regNarrow[r], p.regPredNarrow[r] = 0, 0
		// Bumping the generation invalidates every cached per-cluster copy
		// without touching the arrival arrays; only gen equality is ever
		// observed, so the monotone values leave behaviour identical to a
		// fresh processor's gen-1 start.
		p.regGen[r]++
	}

	p.lsq.reset()
	p.steerRR = 0
	p.freeIQAt = [2]uint64{^uint64(0), ^uint64(0)}
	p.freeRegsAt = p.freeIQAt
	p.statsBase = 0
	p.s = Stats{}
	p.probe = nil
	p.Observer = nil
}

// frontDepth is the number of pipeline stages between fetch and dispatch
// (decode + rename); together with branch resolution and the network
// signal latency it realises the "at least 12 cycles" mispredict penalty of
// Table 1.
const frontDepth = 9

// Run simulates n instructions from the stream and returns the statistics.
// It is RunContext with a background context, which is never cancelled, so
// an error means an engine invariant broke: the run stopped making progress
// (NoProgressError) or its timing stopped being exact (CalendarError). Run
// panics with that error rather than return the statistics of a truncated
// or inexact run; callers that must survive it use RunContext.
func (p *Processor) Run(src trace.Stream, n uint64) Stats {
	st, err := p.RunContext(context.Background(), src, n)
	if err != nil {
		panic(err)
	}
	return st
}

// Warmup simulates up to n instructions and then clears all statistics
// while keeping the microarchitectural state (caches, predictors,
// calendars) warm — the paper's methodology of detailed warmup before
// measurement. It steps on RunContext's loop, so cancellation, the
// forward-progress watchdog and the calendar check cover the warmup too,
// and it returns RunContext's error. An attached probe samples the warmup
// as well; attach it afterwards to observe only the measured run.
func (p *Processor) Warmup(ctx context.Context, src trace.Stream, n uint64) error {
	_, err := p.RunContext(ctx, src, n)
	p.resetStats()
	return err
}

// resetStats zeroes every statistic without touching machine state. The
// cycle baseline moves to the current commit frontier so IPC reflects only
// the measured region.
func (p *Processor) resetStats() {
	p.s = Stats{}
	p.statsBase = p.lastCommit
	p.net.ResetStats()
	p.mem.ResetStats()
	p.bp.ResetStats()
	p.np.ResetStats()
}

// finalize fills the derived statistics after a run.
func (p *Processor) finalize() {
	p.s.Cycles = p.lastCommit - p.statsBase
	p.s.BranchAccuracy = p.bp.Accuracy()
	p.s.L1DMissRate = p.mem.L1D.MissRate()
	p.s.L2MissRate = p.mem.L2.MissRate()
	p.s.TLBMissRate = p.mem.TLB.MissRate()
	p.s.BTBMisses = p.bp.BTBMisses
	for i, c := range []wires.Class{wires.B, wires.PW, wires.L} {
		p.s.Net[i] = p.net.StatsFor(c)
	}
	p.s.WaitCycles = p.net.TotalWaitCycles()
	p.s.LinkInventory = p.net.LinkInventory()
}

// NarrowCoverage exposes the narrow predictor's coverage for the claims
// experiments.
func (p *Processor) NarrowCoverage() float64 { return p.np.Coverage() }

// NarrowFalseRate exposes the predictor's false-narrow rate.
func (p *Processor) NarrowFalseRate() float64 { return p.np.FalseNarrowRate() }
