// Package config defines the simulated processor configurations: the
// paper's Table 1 core/memory parameters, the interconnect models I..X of
// Tables 3 and 4, the 4- and 16-cluster topologies of Figure 2, and the
// microarchitectural technique toggles of Section 4.
package config

import (
	"fmt"

	"hetwire/internal/sched"
	"hetwire/internal/wires"
)

// Topology selects the inter-cluster network shape (paper Figure 2).
type Topology uint8

const (
	// Crossbar4 is the 4-cluster system: four clusters and the centralized
	// L1 data cache connected by a crossbar.
	Crossbar4 Topology = iota
	// HierRing16 is the 16-cluster system: four 4-cluster crossbars joined
	// by a ring (after Aggarwal & Franklin).
	HierRing16
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case Crossbar4:
		return "4-cluster crossbar"
	case HierRing16:
		return "16-cluster hierarchical ring"
	}
	return fmt.Sprintf("Topology(%d)", uint8(t))
}

// Clusters returns the cluster count for the topology.
func (t Topology) Clusters() int {
	if t == HierRing16 {
		return 16
	}
	return 4
}

// LinkSpec describes the heterogeneous wire composition of one link
// *direction* to a cluster. Counts are physical wires; bandwidth in
// transfers/cycle follows from the per-class message widths (72 bits on
// B/PW/W, 18 bits on L). Links to the centralized data cache have twice the
// metal area and twice the wires (paper Section 4).
type LinkSpec struct {
	BWires  int // 72 wires per B transfer/cycle
	PWWires int // 72 wires per PW transfer/cycle
	LWires  int // 18 wires per L transfer/cycle
}

// Transfer widths in wires for a full transfer slot on each class.
const (
	BTransferWires  = 72
	PWTransferWires = 72
	LTransferWires  = 18
)

// Bandwidth returns transfers per cycle available on the given class.
func (l LinkSpec) Bandwidth(c wires.Class) int {
	switch c {
	case wires.B:
		return l.BWires / BTransferWires
	case wires.PW:
		return l.PWWires / PWTransferWires
	case wires.L:
		return l.LWires / LTransferWires
	}
	return 0
}

// Has reports whether the link has any wires of the class.
func (l LinkSpec) Has(c wires.Class) bool { return l.Bandwidth(c) > 0 }

// TotalWires returns the wire count of the class (for leakage accounting).
func (l LinkSpec) TotalWires(c wires.Class) int {
	switch c {
	case wires.B:
		return l.BWires
	case wires.PW:
		return l.PWWires
	case wires.L:
		return l.LWires
	}
	return 0
}

// Double returns the link spec with twice the wires (used for cache links).
func (l LinkSpec) Double() LinkSpec {
	return LinkSpec{BWires: 2 * l.BWires, PWWires: 2 * l.PWWires, LWires: 2 * l.LWires}
}

// MetalArea returns the link's metal area in units of one 144-B-wire link
// (the Model I area), using the Table 2 relative pitches: a B wire costs
// twice a PW/W wire and an L wire costs eight times.
func (l LinkSpec) MetalArea() float64 {
	bUnits := float64(l.BWires) * 2
	pwUnits := float64(l.PWWires) * 1
	lUnits := float64(l.LWires) * 8
	// Model I per-direction link (72 B wires at 2 pitch units each) is the unit.
	return (bUnits + pwUnits + lUnits) / 144
}

// String renders the spec the way the paper's tables do.
func (l LinkSpec) String() string {
	s := ""
	sep := func() {
		if s != "" {
			s += ", "
		}
	}
	if l.BWires > 0 {
		s += fmt.Sprintf("%d B-Wires", l.BWires)
	}
	if l.PWWires > 0 {
		sep()
		s += fmt.Sprintf("%d PW-Wires", l.PWWires)
	}
	if l.LWires > 0 {
		sep()
		s += fmt.Sprintf("%d L-Wires", l.LWires)
	}
	if s == "" {
		s = "(no wires)"
	}
	return s
}

// ModelID identifies one of the paper's interconnect models (Tables 3/4).
type ModelID int

// The paper's ten interconnect models. The LinkSpec counts follow the
// paper's table captions, which give total wires per link; a link carries
// half in each direction, so e.g. Model I's "144 B-Wires" is one 72-bit B
// transfer per cycle per direction.
const (
	ModelI ModelID = iota + 1
	ModelII
	ModelIII
	ModelIV
	ModelV
	ModelVI
	ModelVII
	ModelVIII
	ModelIX
	ModelX
)

// String returns the Roman-numeral model name used in the paper.
func (m ModelID) String() string {
	names := [...]string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"}
	if m < ModelI || m > ModelX {
		return fmt.Sprintf("Model(%d)", int(m))
	}
	return "Model-" + names[m-1]
}

// ModelSpec couples a model ID with its per-direction cluster-link wires.
type ModelSpec struct {
	ID   ModelID
	Link LinkSpec // per direction, links to clusters; cache links are Double()
}

// Models returns the paper's ten interconnect models (Tables 3 and 4),
// with per-direction wire counts (half the table's per-link totals).
func Models() []ModelSpec {
	return []ModelSpec{
		{ModelI, LinkSpec{BWires: 72}},
		{ModelII, LinkSpec{PWWires: 144}},
		{ModelIII, LinkSpec{PWWires: 72, LWires: 18}},
		{ModelIV, LinkSpec{BWires: 144}},
		{ModelV, LinkSpec{BWires: 72, PWWires: 144}},
		{ModelVI, LinkSpec{PWWires: 144, LWires: 18}},
		{ModelVII, LinkSpec{BWires: 72, LWires: 18}},
		{ModelVIII, LinkSpec{BWires: 216}},
		{ModelIX, LinkSpec{BWires: 144, LWires: 18}},
		{ModelX, LinkSpec{BWires: 72, PWWires: 144, LWires: 18}},
	}
}

// Model returns the spec for one model ID.
func Model(id ModelID) ModelSpec {
	for _, m := range Models() {
		if m.ID == id {
			return m
		}
	}
	panic(fmt.Sprintf("config: unknown model %d", int(id)))
}

// SteeringPolicy selects how instructions are assigned to clusters.
type SteeringPolicy uint8

const (
	// SteerDynamic is the paper's run-time heuristic: dependence,
	// criticality, cache proximity and issue-queue occupancy weights.
	SteerDynamic SteeringPolicy = iota
	// SteerStatic assigns each static instruction to a fixed cluster by PC
	// hash — a stand-in for compile-time partitioning, which the paper
	// notes its proposals also apply to.
	SteerStatic
	// SteerRoundRobin distributes instructions blindly; the degenerate
	// baseline that maximises communication.
	SteerRoundRobin
)

// String names the policy.
func (s SteeringPolicy) String() string {
	switch s {
	case SteerDynamic:
		return "dynamic"
	case SteerStatic:
		return "static-hash"
	case SteerRoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("SteeringPolicy(%d)", uint8(s))
}

// Techniques gathers the Section 4 mechanism toggles. The zero value
// disables everything (pure baseline); enabled techniques only take effect
// when the interconnect provides the wire class they need.
type Techniques struct {
	// LWireCachePipeline sends the LS bits of load/store effective addresses
	// on L-wires so LSQ partial disambiguation and L1/TLB RAM access start
	// early (Section 4, "Accelerating Cache Access").
	LWireCachePipeline bool
	// LSBits is the number of low-order address bits carried by the early
	// L-wire transfer for partial LSQ comparison (paper uses 8).
	LSBits int
	// NarrowOperands routes results representable in 10 bits over L-wires.
	NarrowOperands bool
	// NarrowOracle bypasses the predictor and uses perfect advance knowledge
	// of operand widths (the paper's optimistic assumption; the predictor
	// version models the 8K-entry 2-bit table).
	NarrowOracle bool
	// MispredictOnL sends branch mispredict signals (branch ID only) to the
	// front end on L-wires.
	MispredictOnL bool
	// PWReadyOperands transfers operands that are already available in a
	// remote register file at dispatch time on PW-wires.
	PWReadyOperands bool
	// PWStoreData sends store data to the LSQ on PW-wires.
	PWStoreData bool
	// PWLoadBalance diverts traffic to the less congested interconnect when
	// the recent-traffic difference exceeds BalanceThreshold.
	PWLoadBalance bool
	// BalanceWindow is the traffic-tracking window in cycles (paper: N=5).
	BalanceWindow int
	// BalanceThreshold is the traffic-difference trigger (paper: 10).
	BalanceThreshold int

	// Extensions beyond the paper's evaluated configuration, implementing
	// the directions its text sketches. All default off.

	// FrequentValueEnc encodes operands matching an 8-entry frequent-value
	// table in 3 bits so they ride L-wires even when wider than 10 bits
	// (the Yang et al. compaction the paper cites as future work).
	FrequentValueEnc bool
	// CriticalWordOnL returns the critical word of L2/memory-missing loads
	// to the cluster on L-wires when the loaded value is narrow (the
	// Section 5.3 note about fetching critical words from L2/L3 on
	// low-latency wires). The cache has the value in hand, so no
	// prediction is involved.
	CriticalWordOnL bool
	// TransmissionLineL implements the L plane as on-chip transmission
	// lines instead of fat RC wires: same cycle latencies at this clock,
	// but roughly one third the dynamic energy per transfer (Chang et al.,
	// paper Section 5.2).
	TransmissionLineL bool
}

// AllTechniques returns the paper's full Section 4 configuration: L-wire
// cache pipeline with 8 LS bits, predicted narrow operands, mispredict
// signals on L, and all three PW steering criteria with N=5, threshold 10.
func AllTechniques() Techniques {
	return Techniques{
		LWireCachePipeline: true,
		LSBits:             8,
		NarrowOperands:     true,
		MispredictOnL:      true,
		PWReadyOperands:    true,
		PWStoreData:        true,
		PWLoadBalance:      true,
		BalanceWindow:      5,
		BalanceThreshold:   10,
	}
}

// Core holds the Table 1 pipeline and memory-hierarchy parameters.
type Core struct {
	FetchQueueSize int // 64
	FetchWidth     int // 8, across up to 2 basic blocks
	MaxBlocksFetch int // 2
	DispatchWidth  int // 8
	CommitWidth    int // 8
	ROBSize        int // 480
	IssueQPerClust int // 15 (int and fp each)
	RegsPerClust   int // 32 (int and fp each)
	IntALUs        int // 1 per cluster
	IntMulDiv      int // 1 per cluster
	FPALUs         int // 1 per cluster
	FPMulDiv       int // 1 per cluster

	MinMispredictPenalty int // at least 12 cycles

	// Branch predictor (combination of bimodal and 2-level).
	BimodalSize   int // 16K
	L1PredSize    int // 16K entries
	HistoryBits   int // 12
	L2PredSize    int // 16K entries
	ChooserSize   int // 16K
	BTBSets       int // 16K sets
	BTBAssoc      int // 2-way
	RASEntries    int
	NarrowPredSz  int // 8K 2-bit counters for the narrow-operand predictor
	NarrowMaxBits int // results in [0, 2^NarrowMaxBits) ride L-wires (10)

	// Memory hierarchy.
	L1ISizeKB    int // 32
	L1IAssoc     int // 2
	L1ILatency   int
	L1DSizeKB    int // 32
	L1DAssoc     int // 4
	L1DLatency   int // 6
	L1DBanks     int // 4-way word interleaved
	L1DPorts     int // ports per bank
	LineBytes    int // 64
	L2SizeMB     int // 8
	L2Assoc      int // 8
	L2Latency    int // 30
	MemLatency   int // 300 for the first block
	TLBEntries   int // 128
	PageBytes    int // 8KB
	TLBAssocBase int // TLB associativity in the baseline pipeline
	L1DAssocBase int
}

// DefaultCore returns the paper's Table 1 configuration.
func DefaultCore() Core {
	return Core{
		FetchQueueSize:       64,
		FetchWidth:           8,
		MaxBlocksFetch:       2,
		DispatchWidth:        8,
		CommitWidth:          8,
		ROBSize:              480,
		IssueQPerClust:       15,
		RegsPerClust:         32,
		IntALUs:              1,
		IntMulDiv:            1,
		FPALUs:               1,
		FPMulDiv:             1,
		MinMispredictPenalty: 12,
		BimodalSize:          16 * 1024,
		L1PredSize:           16 * 1024,
		HistoryBits:          12,
		L2PredSize:           16 * 1024,
		ChooserSize:          16 * 1024,
		BTBSets:              16 * 1024,
		BTBAssoc:             2,
		RASEntries:           32,
		NarrowPredSz:         8 * 1024,
		NarrowMaxBits:        10,
		L1ISizeKB:            32,
		L1IAssoc:             2,
		L1ILatency:           1,
		L1DSizeKB:            32,
		L1DAssoc:             4,
		L1DLatency:           6,
		L1DBanks:             4,
		L1DPorts:             1,
		LineBytes:            64,
		L2SizeMB:             8,
		L2Assoc:              8,
		L2Latency:            30,
		MemLatency:           300,
		TLBEntries:           128,
		PageBytes:            8 * 1024,
		TLBAssocBase:         8,
		L1DAssocBase:         4,
	}
}

// Config is a complete simulated-machine description.
type Config struct {
	Core     Core
	Topology Topology
	Model    ModelSpec
	Tech     Techniques
	// Steering selects the instruction-to-cluster assignment policy
	// (default: the paper's dynamic heuristic).
	Steering SteeringPolicy
	// LinkHeterogeneous selects the paper's Section 3 alternative: instead
	// of every link carrying all wire classes (plane heterogeneity, the
	// paper's choice), alternate links are built entirely from one class —
	// even-numbered cluster links all B-wires, odd-numbered all PW-wires,
	// at the same total metal area. Lower design complexity, but a message
	// must take whatever wires its link has. Only meaningful for models
	// with both B and PW wires (e.g. Model V).
	LinkHeterogeneous bool
	// LatencyScale multiplies all interconnect latencies; 2 models the
	// paper's "wire-constrained future technology" studies (Section 5.3).
	LatencyScale int
}

// Default returns the paper's baseline: 4 clusters, Model I (homogeneous
// 144 B-wires per link), which supports none of the heterogeneous-wire
// techniques. It equals Default().WithModel(ModelI), so the baseline built
// in Go and the one a config document names are the same value.
func Default() Config {
	return Config{
		Core:         DefaultCore(),
		Topology:     Crossbar4,
		Model:        Model(ModelI),
		Tech:         TechniquesFor(Model(ModelI).Link),
		LatencyScale: 1,
	}
}

// TechniquesFor returns the paper's full Section 4 technique set filtered
// to what the link's wire classes support: L-wire mechanisms need L wires,
// PW steering needs PW wires, and load balancing needs both a B and a PW
// plane to balance between.
func TechniquesFor(link LinkSpec) Techniques {
	t := AllTechniques()
	if !link.Has(wires.L) {
		t.LWireCachePipeline = false
		t.NarrowOperands = false
		t.MispredictOnL = false
	}
	if !link.Has(wires.PW) {
		t.PWReadyOperands = false
		t.PWStoreData = false
	}
	t.PWLoadBalance = link.Has(wires.PW) && link.Has(wires.B)
	return t
}

// WithModel returns a copy of the config using the given interconnect model
// and, when the model provides the necessary wire classes, the paper's full
// technique set.
func (c Config) WithModel(id ModelID) Config {
	out := c
	out.Model = Model(id)
	out.Tech = TechniquesFor(out.Model.Link)
	return out
}

// WithLink returns a copy of the config using a custom per-direction link
// composition (outside the paper's ten named models), with the supported
// techniques enabled. Used by the design-space explorer.
func (c Config) WithLink(link LinkSpec) Config {
	out := c
	out.Model = ModelSpec{ID: ModelID(0), Link: link}
	out.Tech = TechniquesFor(link)
	return out
}

// Latency returns the inter-cluster latency in cycles for a transfer on the
// given class within one crossbar, scaled by LatencyScale.
func (c Config) Latency(class wires.Class) int {
	l := wires.CrossbarLatency(class)
	if c.LatencyScale > 1 {
		l *= c.LatencyScale
	}
	return l
}

// RingLatency returns the per-hop ring latency for the 16-cluster topology.
func (c Config) RingLatency(class wires.Class) int {
	l := wires.RingHopLatency(class)
	if c.LatencyScale > 1 {
		l *= c.LatencyScale
	}
	return l
}

// MaxROBSize caps Core.ROBSize. The engine allocates one commit time per
// ROB entry, and a larger window lets dependent chains book further ahead
// of the front end, growing calendar rings toward their cap (see
// sched.MaxCells).
const MaxROBSize = 8192

// Validate checks internal consistency and returns a descriptive error for
// the first problem found.
func (c Config) Validate() error {
	k := &c.Core
	// Widths and pool sizes size a sched.Calendar or sched.Wheel, whose
	// 8-bit per-cycle counts cap them; the constructors panic past the cap.
	// A negative latency turns into a release cycle near 2^64, and the
	// wheel grows its ring toward it until memory runs out. No latency or
	// scale may alone exceed the access span, which also keeps the span's
	// sum below from overflowing.
	for _, f := range []struct {
		name        string
		v, min, max int
	}{
		{"FetchWidth", k.FetchWidth, 1, sched.MaxCalendarCapacity},
		{"DispatchWidth", k.DispatchWidth, 1, sched.MaxCalendarCapacity},
		{"CommitWidth", k.CommitWidth, 1, sched.MaxCalendarCapacity},
		{"L1DPorts", k.L1DPorts, 1, sched.MaxCalendarCapacity},
		{"IntALUs", k.IntALUs, 1, sched.MaxCalendarCapacity},
		{"IntMulDiv", k.IntMulDiv, 1, sched.MaxCalendarCapacity},
		{"FPALUs", k.FPALUs, 1, sched.MaxCalendarCapacity},
		{"FPMulDiv", k.FPMulDiv, 1, sched.MaxCalendarCapacity},
		{"FetchQueueSize", k.FetchQueueSize, 1, sched.MaxWheelSlots},
		{"IssueQPerClust", k.IssueQPerClust, 1, sched.MaxWheelSlots},
		{"RegsPerClust", k.RegsPerClust, 1, sched.MaxWheelSlots},
		{"ROBSize", k.ROBSize, 1, MaxROBSize},
		{"L1ILatency", k.L1ILatency, 0, sched.MaxAccessSpan},
		{"L1DLatency", k.L1DLatency, 0, sched.MaxAccessSpan},
		{"L2Latency", k.L2Latency, 0, sched.MaxAccessSpan},
		{"MemLatency", k.MemLatency, 0, sched.MaxAccessSpan},
		{"LatencyScale", c.LatencyScale, 1, sched.MaxAccessSpan},
	} {
		if f.v < f.min || f.v > f.max {
			return fmt.Errorf("config: %s = %d out of range [%d,%d]", f.name, f.v, f.min, f.max)
		}
	}
	// The worst single access (see sched.MaxAccessSpan): a round trip over
	// the longest route on the slowest class, plus the L1D, L2 and memory
	// latencies.
	route := c.Latency(wires.PW)
	if c.Topology == HierRing16 {
		route += 2 * c.RingLatency(wires.PW)
	}
	if span := 2*route + k.L1DLatency + k.L2Latency + k.MemLatency; span > sched.MaxAccessSpan {
		return fmt.Errorf("config: worst memory access spans %d cycles, over the bound of %d",
			span, sched.MaxAccessSpan)
	}
	if c.Model.Link == (LinkSpec{}) {
		return fmt.Errorf("config: interconnect model %v has no wires", c.Model.ID)
	}
	if c.Tech.LWireCachePipeline && !c.Model.Link.Has(wires.L) {
		return fmt.Errorf("config: L-wire cache pipeline enabled but %v has no L-wires", c.Model.ID)
	}
	if (c.Tech.PWReadyOperands || c.Tech.PWStoreData) && !c.Model.Link.Has(wires.PW) {
		return fmt.Errorf("config: PW steering enabled but %v has no PW-wires", c.Model.ID)
	}
	if c.Tech.NarrowOperands && !c.Model.Link.Has(wires.L) {
		return fmt.Errorf("config: narrow-operand transfers enabled but %v has no L-wires", c.Model.ID)
	}
	if c.Tech.LWireCachePipeline && (c.Tech.LSBits < 4 || c.Tech.LSBits > 16) {
		return fmt.Errorf("config: LSBits = %d out of supported range [4,16]", c.Tech.LSBits)
	}
	if (c.Tech.FrequentValueEnc || c.Tech.CriticalWordOnL || c.Tech.TransmissionLineL) && !c.Model.Link.Has(wires.L) {
		return fmt.Errorf("config: L-wire extension enabled but %v has no L-wires", c.Model.ID)
	}
	return nil
}
