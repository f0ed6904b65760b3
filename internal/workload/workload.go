// Package workload synthesises SPEC2000-like dynamic instruction streams.
//
// The paper evaluates 23 SPEC2k programs (reference inputs, SimPoint
// regions) on a Simplescalar/Alpha pipeline; neither the binaries nor the
// traces are available here, so each benchmark is replaced by a calibrated
// synthetic profile that reproduces the first-order statistics the paper's
// mechanisms are sensitive to:
//
//   - instruction mix (loads, stores, branches, int/fp compute),
//   - register dependence distances (which set inter-cluster traffic),
//   - branch predictability (per-branch biased/loop/random behaviour with a
//     fixed static PC population, so the real combining predictor and BTB
//     produce realistic mispredict rates),
//   - memory locality (working-set and streaming components driving the
//     real L1/L2/TLB models to realistic miss rates),
//   - narrow-operand fraction (values in [0, 1024) eligible for L-wires).
//
// Generation is fully deterministic per profile seed.
package workload

import (
	"hetwire/internal/trace"
	"hetwire/internal/xrand"
)

// Profile parameterises one synthetic benchmark.
type Profile struct {
	Name string
	Seed uint64

	// Instruction mix. FracBranch is realised through basic-block length;
	// loads/stores/compute fill the block bodies.
	FracLoad   float64
	FracStore  float64
	FracBranch float64
	FracFP     float64 // fraction of compute ops that are floating point
	FracMul    float64 // fraction of compute ops that are multiplies

	// Register dependence behaviour.
	DepP       float64 // geometric parameter: larger = tighter dependences
	FarDepFrac float64 // fraction of sources drawn from far-older writers

	// Branch behaviour mix (fractions of static branches; remainder are
	// random with RandTakenP).
	BiasedFrac float64
	LoopFrac   float64
	RandTakenP float64

	// Memory behaviour.
	WorkingSetKB int     // cache-resident region
	BigRegionMB  int     // large region causing L2/memory misses
	BigFrac      float64 // fraction of accesses into the big region
	StrideFrac   float64 // fraction of static memory ops that stream

	// BiasP is the taken probability of biased-taken branches (and one
	// minus it for biased-not-taken); 0 means the default 0.97. Codes with
	// extremely predictable control flow (vortex) use ~0.995.
	BiasP float64

	// Value behaviour.
	NarrowFrac float64 // average fraction of int results in [0, 1024)

	// Code footprint: number of static basic blocks (~blockLen instrs each).
	StaticBlocks int

	// AddrOffset shifts every generated code and data address; used to give
	// multiprogrammed threads disjoint address spaces.
	AddrOffset uint64
}

// blockLen derives the average basic-block length from the branch fraction.
func (p Profile) blockLen() int {
	if p.FracBranch <= 0 {
		return 16
	}
	l := int(1/p.FracBranch + 0.5)
	if l < 3 {
		l = 3
	}
	if l > 24 {
		l = 24
	}
	return l
}

// branch behaviour kinds
const (
	brBiasedTaken = iota
	brBiasedNotTaken
	brLoop
	brRandom
)

// narrow behaviour kinds for value generation
const (
	nwWide = iota
	nwAlways
	nwMixed
)

type staticInstr struct {
	op      trace.Op
	dest    int16
	narrowK uint8
	memID   int // index into memory pattern table, -1 for non-mem
}

type staticBlock struct {
	pc     uint64 // PC of first instruction
	instrs []staticInstr
	// branch behaviour (the last instruction is always the branch)
	brKind   uint8
	loopN    int // loop trip count for brLoop
	takenTgt int // block index when taken
	biasP    float64
}

type memPattern struct {
	stride    bool
	base      uint64
	strideB   uint64
	pos       uint64
	regionLen uint64
	big       bool
}

// Generator streams a synthetic benchmark. It implements trace.Stream.
type Generator struct {
	prof   Profile
	src    *xrand.Source
	blocks []staticBlock
	mems   []memPattern

	curBlock int
	curIdx   int
	loopLeft int

	// Shared Zipf sampler over working-set cache lines (temporal locality
	// for non-streaming accesses).
	wsLines uint64
	zipf    *xrand.Zipf

	// recentWriters is a ring of the destination registers of recent
	// instructions, used to realise dependence distances.
	recentWriters [64]int16
	writerPos     int

	intReg int16 // round-robin dest allocation
	fpReg  int16

	// commonValues is a small pool of wide constants (base pointers,
	// repeated structure tags) that recur in the value stream; roughly half
	// of all values in real programs come from a handful of frequent values
	// (Yang et al.), which the frequent-value-encoding extension exploits.
	commonValues [12]uint64

	// writersInBlock counts results produced since the current basic block
	// began; near dependences are scoped to it (see pickSource).
	writersInBlock int
}

// normalized applies the constructor defaults, so profiles that differ only
// in how the caller spelled a default share one memo-cache identity.
func (p Profile) normalized() Profile {
	if p.StaticBlocks <= 0 {
		p.StaticBlocks = 256
	}
	return p
}

// NewGenerator returns a cursor over the profile's deterministic stream,
// memoized in the process-wide Shared cache: the static program is built
// once, and the dynamic stream is drawn once and replayed by every later
// run of the profile. The stream is bit-identical to a cold build's — see
// NewGeneratorUncached and the memo contract in memo.go.
func NewGenerator(p Profile) *Cursor { return Shared.Generator(p) }

// NewGeneratorUncached builds the static program from scratch and streams
// from it directly, bypassing the memo. It exists so tests can prove the
// memoized path equivalent; the two must be behaviourally indistinguishable.
func NewGeneratorUncached(p Profile) *Generator {
	p = p.normalized()
	return newFromProgram(p, buildProgram(p))
}

// program is the immutable product of building a profile's static code: the
// basic blocks, the pristine memory-pattern table, the Zipf locality table,
// and the RNG state the dynamic stream starts from. Everything here is
// read-only after buildProgram returns (memory patterns are copied per
// generator because streaming positions advance), so one program can back
// any number of concurrent generators.
type program struct {
	blocks       []staticBlock
	mems         []memPattern // template; cloned per generator
	src          xrand.State  // generator RNG position at end of build
	commonValues [12]uint64
	wsLines      uint64
	zipf         *xrand.Zipf // CDF table only; reseated per generator
	bytes        int64       // approximate retained size, for cache budgeting
}

// buildProgram runs the cold static-program construction for a normalized
// profile and captures the artifacts a generator needs to start streaming.
func buildProgram(p Profile) *program {
	g := &Generator{prof: p, src: xrand.New(p.Seed)}
	for i := range g.recentWriters {
		g.recentWriters[i] = trace.NoReg
	}
	ws := uint64(p.WorkingSetKB) * 1024
	if ws == 0 {
		ws = 16 << 10
	}
	g.wsLines = ws / 64
	g.zipf = xrand.NewZipf(g.src, int(g.wsLines), 1.1)
	// A separate source keeps the static-program construction independent
	// of the value-pool contents.
	vsrc := xrand.New(p.Seed ^ 0xC0FFEE)
	for i := range g.commonValues {
		g.commonValues[i] = 1024 + vsrc.Uint64()>>1
	}
	g.build()
	pr := &program{
		blocks:       g.blocks,
		mems:         append([]memPattern(nil), g.mems...),
		src:          g.src.State(),
		commonValues: g.commonValues,
		wsLines:      g.wsLines,
		zipf:         g.zipf,
	}
	pr.bytes = pr.sizeBytes()
	return pr
}

// newFromProgram constructs a fresh generator over a built program. The
// result is byte-for-byte the generator a cold build would have produced:
// the RNG resumes from the post-build snapshot, memory patterns start from
// their pristine positions, and all shared state is read-only.
func newFromProgram(p Profile, pr *program) *Generator {
	src := xrand.FromState(pr.src)
	g := &Generator{
		prof:         p,
		src:          src,
		blocks:       pr.blocks,
		mems:         append([]memPattern(nil), pr.mems...),
		wsLines:      pr.wsLines,
		zipf:         pr.zipf.Reseat(src),
		commonValues: pr.commonValues,
	}
	for i := range g.recentWriters {
		g.recentWriters[i] = trace.NoReg
	}
	g.loopLeft = g.blocks[0].loopN
	return g
}

// Name returns the profile name of the workload being generated, so
// consumers can label results produced from this stream.
func (g *Generator) Name() string { return g.prof.Name }

// clone returns an independent generator at the same stream position.
func (g *Generator) clone() *Generator {
	c := *g
	c.src = xrand.FromState(g.src.State())
	c.mems = append([]memPattern(nil), g.mems...)
	c.zipf = g.zipf.Reseat(c.src)
	return &c
}

const codeBase = uint64(0x0040_0000)
const dataBase = uint64(0x1000_0000)
const bigBase = uint64(0x4000_0000)

func (g *Generator) build() {
	p := g.prof
	avgLen := p.blockLen()
	pc := codeBase + p.AddrOffset
	nBlocks := p.StaticBlocks
	g.blocks = make([]staticBlock, 0, nBlocks)

	biasP := p.BiasP
	if biasP == 0 {
		biasP = 0.97
	}
	// Probabilities within a block body (branch excluded).
	bodyFrac := 1 - p.FracBranch
	pLoad := p.FracLoad / bodyFrac
	pStore := p.FracStore / bodyFrac
	var loadAcc, storeAcc float64
	ops := make([]trace.Op, 0, avgLen+4) // scratch, reused across blocks

	for b := 0; b < nBlocks; b++ {
		// Block length jitters around the average.
		n := avgLen - 2 + g.src.Intn(5)
		if n < 2 {
			n = 2
		}
		blk := staticBlock{pc: pc}
		// Stratified op assignment: every block individually carries its
		// share of loads and stores (with fractional carry across blocks),
		// so dynamically hot loop blocks cannot skew the instruction mix.
		body := n - 1
		ops = ops[:0]
		loadAcc += pLoad * float64(body)
		storeAcc += pStore * float64(body)
		nLoads := int(loadAcc)
		loadAcc -= float64(nLoads)
		nStores := int(storeAcc)
		storeAcc -= float64(nStores)
		if nLoads+nStores > body {
			nStores = body - nLoads
			if nStores < 0 {
				nLoads, nStores = body, 0
			}
		}
		for i := 0; i < nLoads; i++ {
			ops = append(ops, trace.Load)
		}
		for i := 0; i < nStores; i++ {
			ops = append(ops, trace.Store)
		}
		for len(ops) < body {
			fp := g.src.Bool(p.FracFP)
			mul := g.src.Bool(p.FracMul)
			switch {
			case fp && mul:
				ops = append(ops, trace.FPMul)
			case fp:
				ops = append(ops, trace.FPALU)
			case mul:
				ops = append(ops, trace.IntMul)
			default:
				ops = append(ops, trace.IntALU)
			}
		}
		// Fisher-Yates shuffle so loads/stores sit at varied block offsets.
		for i := len(ops) - 1; i > 0; i-- {
			j := g.src.Intn(i + 1)
			ops[i], ops[j] = ops[j], ops[i]
		}
		blk.instrs = make([]staticInstr, 0, n)
		for _, op := range ops {
			si := staticInstr{op: op, memID: -1}
			if op.IsMem() {
				si.memID = g.newMemPattern()
			}
			si.narrowK = g.narrowKind(si.op)
			blk.instrs = append(blk.instrs, si)
		}
		// Terminating branch.
		blk.instrs = append(blk.instrs, staticInstr{op: trace.Branch, memID: -1})
		r := g.src.Float64()
		switch {
		case r < p.BiasedFrac/2:
			blk.brKind = brBiasedTaken
			blk.biasP = biasP
		case r < p.BiasedFrac:
			blk.brKind = brBiasedNotTaken
			blk.biasP = 1 - biasP
		case r < p.BiasedFrac+p.LoopFrac:
			blk.brKind = brLoop
			blk.loopN = 4 + g.src.Intn(27)
		default:
			blk.brKind = brRandom
			blk.biasP = p.RandTakenP
		}
		pc += uint64(len(blk.instrs)) * 4
		g.blocks = append(g.blocks, blk)
	}

	// Assign taken targets now that all blocks exist: loops target their own
	// block; other taken branches jump to a random block (forward jumps and
	// cross-function calls look alike at this fidelity).
	for b := range g.blocks {
		if g.blocks[b].brKind == brLoop {
			g.blocks[b].takenTgt = b
		} else {
			g.blocks[b].takenTgt = g.src.Intn(len(g.blocks))
		}
	}
	g.loopLeft = g.blocks[0].loopN
}

// narrowKind assigns per-static-instruction value behaviour so that the
// dynamic narrow fraction averages NarrowFrac while per-PC behaviour stays
// predictable (what the 2-bit predictor exploits).
func (g *Generator) narrowKind(op trace.Op) uint8 {
	if op.IsFP() || op == trace.Store || op == trace.Branch {
		return nwWide // fp and non-producing ops never count as narrow
	}
	f := g.prof.NarrowFrac
	switch {
	case g.src.Bool(0.9 * f):
		return nwAlways
	case g.src.Bool(0.2 * f):
		return nwMixed
	default:
		return nwWide
	}
}

// newMemPattern allocates an access pattern for a static memory op.
func (g *Generator) newMemPattern() int {
	p := g.prof
	mp := memPattern{}
	mp.big = g.src.Bool(p.BigFrac)
	mp.stride = g.src.Bool(p.StrideFrac)
	if mp.big {
		region := uint64(p.BigRegionMB) * 1 << 20
		if region == 0 {
			region = 64 << 20
		}
		mp.base = bigBase + p.AddrOffset + g.src.Uint64n(region/2)
		mp.regionLen = region / 2
	} else {
		mp.base = dataBase + p.AddrOffset
		mp.regionLen = g.wsLines * 64
	}
	if mp.stride {
		mp.strideB = uint64(8 * (1 + g.src.Intn(8)))
		if mp.big {
			// Big-region streams are unit-stride array walks (one miss per
			// cache line); wide strides over huge arrays would turn every
			// access into a miss, which real vector loops do not do.
			mp.strideB = uint64(8 << g.src.Intn(2)) // 8 or 16 bytes
		}
		if !mp.big {
			// Working-set streams walk a small sub-array (real loops stream
			// over vectors much smaller than the whole working set); a
			// WS-sized cyclic walk would pathologically thrash LRU.
			span := uint64(1<<10) + g.src.Uint64n(3<<10)
			if span > mp.regionLen {
				span = mp.regionLen
			}
			if mp.regionLen > span {
				mp.base = dataBase + p.AddrOffset + (g.src.Uint64n(mp.regionLen-span) &^ 63)
			}
			mp.regionLen = span
		}
		mp.pos = g.src.Uint64n(mp.regionLen) &^ 7
	}
	g.mems = append(g.mems, mp)
	return len(g.mems) - 1
}

// nextAddr advances a memory pattern and returns the next address.
// Streaming patterns walk their region with a fixed stride; big-region
// random patterns are uniform (pointer chasing over a huge heap, mcf-style);
// working-set random patterns draw cache lines from a Zipf distribution so
// they exhibit the temporal locality real programs have.
func (g *Generator) nextAddr(id int) uint64 {
	mp := &g.mems[id]
	if mp.stride {
		a := mp.base + mp.pos
		mp.pos += mp.strideB
		if mp.pos >= mp.regionLen {
			mp.pos = 0
		}
		return a &^ 7
	}
	if mp.big {
		return (mp.base + g.src.Uint64n(mp.regionLen)) &^ 7
	}
	line := uint64(g.zipf.Next())
	return mp.base + line*64 + 8*g.src.Uint64n(8)
}

// pickSource chooses a source register by dependence distance, mimicking
// the dataflow shape of compiled code: each basic block pulls a few inputs
// (long-lived pinned values, or values produced by recent earlier blocks)
// and then forms a tight internal expression chain over them. The chains
// make inter-cluster transfer latency matter (a consumer is dispatched well
// before its operand is produced), while block-level independence supplies
// the instruction-level parallelism.
func (g *Generator) pickSource() int16 {
	p := g.prof
	var d int
	switch {
	case g.writersInBlock == 0 || g.src.Bool(p.FarDepFrac):
		// Block input.
		if g.src.Bool(0.55) {
			// Long-lived stable value (stack/global base), always ready.
			return pinnedInt(g.src.Intn(numPinned))
		}
		// Output of a recent earlier block (loop-carried value, common
		// subexpression, accumulator).
		d = g.writersInBlock + 1 + g.src.Geometric(0.3)
	default:
		// Block-local chain: mostly the immediately preceding producer.
		d = 1 + g.src.Geometric(p.DepP)
		if d > g.writersInBlock {
			d = g.writersInBlock
		}
	}
	if d > len(g.recentWriters) {
		d = len(g.recentWriters)
	}
	idx := (g.writerPos - d + 2*len(g.recentWriters)) % len(g.recentWriters)
	r := g.recentWriters[idx]
	if r == trace.NoReg {
		return int16(g.src.Intn(32)) // cold start: arbitrary ready register
	}
	return r
}

// numPinned is the number of long-lived registers per bank (stack pointer,
// frame pointer, global bases). They are rewritten only rarely, so they are
// ready at dispatch essentially always.
const numPinned = 4

func pinnedInt(i int) int16 { return int16(28 + i) }
func pinnedFP(i int) int16  { return int16(60 + i) }

// pickAddrSource chooses the address-base register of a load or store.
// Address bases in real code are overwhelmingly stack/frame/array-base
// pointers (pinned registers, ready at dispatch); the rest is short
// pointer arithmetic computed a couple of instructions earlier.
func (g *Generator) pickAddrSource() int16 {
	if g.src.Bool(0.92) {
		return pinnedInt(g.src.Intn(numPinned))
	}
	d := 1 + g.src.Geometric(0.7)
	if d > g.writersInBlock {
		d = g.writersInBlock
	}
	if d == 0 {
		return pinnedInt(g.src.Intn(numPinned))
	}
	idx := (g.writerPos - d + 2*len(g.recentWriters)) % len(g.recentWriters)
	if r := g.recentWriters[idx]; r != trace.NoReg {
		return r
	}
	return pinnedInt(g.src.Intn(numPinned))
}

// destFor allocates a destination register round-robin in the int or fp
// bank.
func (g *Generator) destFor(op trace.Op) int16 {
	// Roughly one in 800 results updates a pinned (long-lived) register —
	// an occasional global/stack-pointer update.
	if g.src.Bool(1.0 / 800) {
		if op.IsFP() {
			return pinnedFP(g.src.Intn(numPinned))
		}
		return pinnedInt(g.src.Intn(numPinned))
	}
	if op.IsFP() {
		g.fpReg = (g.fpReg + 1) % 28
		return 32 + g.fpReg
	}
	g.intReg = (g.intReg + 1) % 28
	return g.intReg
}

// value generates a result value obeying the static narrow class. Wide
// values are drawn from the frequent-value pool about a third of the time,
// mimicking the heavy value reuse of real programs.
func (g *Generator) value(k uint8) uint64 {
	switch k {
	case nwAlways:
		return g.src.Uint64n(1024)
	case nwMixed:
		if g.src.Bool(0.5) {
			return g.src.Uint64n(1024)
		}
	}
	if g.src.Bool(0.35) {
		return g.commonValues[g.src.Intn(len(g.commonValues))]
	}
	return 1024 + g.src.Uint64()>>1
}

// Next implements trace.Stream; synthetic streams never end.
func (g *Generator) Next(ins *trace.Instr) bool {
	blk := &g.blocks[g.curBlock]
	si := &blk.instrs[g.curIdx]
	pc := blk.pc + uint64(g.curIdx)*4

	*ins = trace.Instr{PC: pc, Op: si.op, Src1: trace.NoReg, Src2: trace.NoReg, Dest: trace.NoReg}

	switch si.op {
	case trace.Branch:
		ins.Src1 = g.pickSource()
		taken := false
		switch blk.brKind {
		case brLoop:
			g.loopLeft--
			taken = g.loopLeft > 0
		default:
			taken = g.src.Bool(blk.biasP)
		}
		ins.Taken = taken
		if taken {
			ins.Target = g.blocks[blk.takenTgt].pc
		} else {
			ins.Target = pc + 4
		}
		g.advance(taken, blk)
		return true
	case trace.Load:
		ins.Src1 = g.pickAddrSource() // address base register
		ins.Dest = g.destFor(si.op)
		ins.Addr = g.nextAddr(si.memID)
		ins.Value = g.value(si.narrowK)
	case trace.Store:
		ins.Src1 = g.pickAddrSource() // address base
		ins.Src2 = g.pickSource()     // data
		ins.Addr = g.nextAddr(si.memID)
	default:
		// Real integer/fp ops frequently take an immediate or a
		// loop-invariant operand: ~15% have no register source at all and
		// only ~40% read two registers. This is what gives the stream its
		// ILP; all-register chains would serialise the whole program.
		if !g.src.Bool(0.15) {
			ins.Src1 = g.pickSource()
		}
		if g.src.Bool(0.4) {
			ins.Src2 = g.pickSource()
		}
		ins.Dest = g.destFor(si.op)
		ins.Value = g.value(si.narrowK)
	}
	if ins.Dest != trace.NoReg {
		g.writerPos = (g.writerPos + 1) % len(g.recentWriters)
		g.recentWriters[g.writerPos] = ins.Dest
		g.writersInBlock++
	}
	g.curIdx++
	if g.curIdx >= len(blk.instrs) {
		// Can't happen: blocks always end with the branch handled above.
		g.curIdx = 0
	}
	return true
}

// advance moves control flow after a branch.
func (g *Generator) advance(taken bool, blk *staticBlock) {
	if taken {
		g.curBlock = blk.takenTgt
	} else {
		g.curBlock = (g.curBlock + 1) % len(g.blocks)
	}
	g.curIdx = 0
	g.writersInBlock = 0
	nb := &g.blocks[g.curBlock]
	if nb.brKind == brLoop && (g.loopLeft <= 0 || g.curBlock != blk.takenTgt || !taken) {
		g.loopLeft = nb.loopN
	}
}
