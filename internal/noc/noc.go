// Package noc models the inter-cluster communication fabric: heterogeneous
// links made of B-, PW- and L-wire planes, the 4-cluster crossbar and the
// 16-cluster hierarchical crossbar+ring of paper Figure 2, per-link
// bandwidth arbitration with unbounded buffering, the traffic-imbalance
// detector of Section 4, and per-class traffic/energy accounting.
package noc

import (
	"fmt"

	"hetwire/internal/config"
	"hetwire/internal/sched"
	"hetwire/internal/wires"
)

// NodeKind distinguishes endpoint types on the network.
type NodeKind uint8

const (
	// ClusterNode is one execution cluster.
	ClusterNode NodeKind = iota
	// CacheNode is the centralized LSQ + L1 data cache. The front end
	// (fetch/rename) is co-located with it, so branch-mispredict signals to
	// the front end travel over the cache links.
	CacheNode
)

// Node identifies a network endpoint.
type Node struct {
	Kind  NodeKind
	Index int // cluster index; ignored for CacheNode
}

// Cluster returns the node for cluster i.
func Cluster(i int) Node { return Node{Kind: ClusterNode, Index: i} }

// Cache is the centralized cache/front-end node.
var Cache = Node{Kind: CacheNode}

// String names the node.
func (n Node) String() string {
	if n.Kind == CacheNode {
		return "cache"
	}
	return fmt.Sprintf("cluster%d", n.Index)
}

// link is one direction of one physical link: a calendar per wire class.
type link struct {
	cal  [3]*sched.Calendar // indexed by classIdx
	spec config.LinkSpec
}

func classIdx(c wires.Class) int {
	switch c {
	case wires.B:
		return 0
	case wires.PW:
		return 1
	case wires.L:
		return 2
	}
	panic("noc: W wires are a design reference, not a link plane")
}

// linkOnlySpec converts a plane-heterogeneous link into the Section 3
// alternative: even links carry only B-wires, odd links only PW-wires, at
// the same metal area (a B wire costs two PW wires of area). L wires, when
// present, stay on every link (they are the low-complexity plane).
func linkOnlySpec(spec config.LinkSpec, idx int) config.LinkSpec {
	if spec.BWires == 0 || spec.PWWires == 0 {
		return spec // single wide class: nothing to segregate
	}
	// Total area in PW-wire units.
	area := 2*spec.BWires + spec.PWWires
	out := config.LinkSpec{LWires: spec.LWires}
	if idx%2 == 0 {
		out.BWires = area / 2 / config.BTransferWires * config.BTransferWires
		if out.BWires == 0 {
			out.BWires = config.BTransferWires
		}
	} else {
		out.PWWires = area / config.PWTransferWires * config.PWTransferWires
		if out.PWWires == 0 {
			out.PWWires = config.PWTransferWires
		}
	}
	return out
}

func newLink(spec config.LinkSpec, tl *sched.Timeline) *link {
	l := &link{spec: spec}
	for _, c := range []wires.Class{wires.B, wires.PW, wires.L} {
		bw := spec.Bandwidth(c)
		if bw > 0 {
			l.cal[classIdx(c)] = sched.NewCalendar(bw, tl)
		}
	}
	return l
}

func (l *link) has(c wires.Class) bool { return l.cal[classIdx(c)] != nil }

// fallbackClass returns c if the link carries it, else the link's wide
// class (needed when link-heterogeneous links mix along one path).
func fallbackClass(l *link, c wires.Class) wires.Class {
	if l.has(c) {
		return c
	}
	if c != wires.L && l.has(wires.B) {
		return wires.B
	}
	if c != wires.L && l.has(wires.PW) {
		return wires.PW
	}
	return c
}

// ClassStats accumulates per-class traffic and energy inputs.
type ClassStats struct {
	Transfers  uint64
	Bits       uint64
	BitHops    uint64 // bits weighted by path length units (crossbar=1, ring hop=2)
	WaitCycles uint64 // cycles spent buffered waiting for a slot (contention)
	// MaxWait is the longest time any single message spent buffered — an
	// upper bound on the per-node buffer occupancy the paper's unbounded
	// buffers would need (Parcerisa et al. report a modest number of
	// entries suffices; this lets the claim be checked).
	MaxWait uint64
}

// Network is the inter-cluster fabric. Not safe for concurrent use.
type Network struct {
	cfg      config.Config
	clusters int

	clusterOut []*link // per cluster, towards the crossbar
	clusterIn  []*link // per cluster, from the crossbar
	cacheOut   *link   // cache -> network (double width)
	cacheIn    *link   // network -> cache (double width)

	// Ring segments for the 16-cluster topology: segment i connects quad i
	// to quad (i+1)%4, one link per direction.
	ringCW  []*link
	ringCCW []*link

	// Imbalance detector state (Section 4): recent injection cycle stamps
	// per class, pruned to the configured window.
	recentB  []uint64
	recentPW []uint64

	// routes caches the route between every pair of endpoints, indexed by
	// nodeIdx (clusters 0..clusters-1, cache at index clusters). Routes are
	// static for a topology, and precomputing them keeps ring-path segment
	// slices off the per-Transfer hot path.
	routes [][]route

	// allLinks lists every link once, for whole-network sweeps (Reset,
	// LinkInventory).
	allLinks []*link

	Stats [3]ClassStats // indexed by classIdx
}

// New builds the network for the configuration's topology and model. Every
// link calendar lives on the given timeline (see sched.Calendar): no later
// Transfer or PeekTransfer may be ready before its floor.
func New(cfg config.Config, tl *sched.Timeline) *Network {
	n := &Network{cfg: cfg, clusters: cfg.Topology.Clusters()}
	spec := cfg.Model.Link
	n.clusterOut = make([]*link, n.clusters)
	n.clusterIn = make([]*link, n.clusters)
	for i := range n.clusterOut {
		s := spec
		if cfg.LinkHeterogeneous {
			s = linkOnlySpec(spec, i)
		}
		n.clusterOut[i] = newLink(s, tl)
		n.clusterIn[i] = newLink(s, tl)
	}
	n.cacheOut = newLink(spec.Double(), tl)
	n.cacheIn = newLink(spec.Double(), tl)
	if cfg.Topology == config.HierRing16 {
		n.ringCW = make([]*link, 4)
		n.ringCCW = make([]*link, 4)
		for i := 0; i < 4; i++ {
			n.ringCW[i] = newLink(spec, tl)
			n.ringCCW[i] = newLink(spec, tl)
		}
	}
	n.routes = make([][]route, n.clusters+1)
	for a := 0; a <= n.clusters; a++ {
		n.routes[a] = make([]route, n.clusters+1)
		for b := 0; b <= n.clusters; b++ {
			n.routes[a][b] = n.buildRoute(n.nodeAt(a), n.nodeAt(b))
			n.initPlans(&n.routes[a][b])
		}
	}
	n.allLinks = append(n.allLinks, n.cacheOut, n.cacheIn)
	n.allLinks = append(n.allLinks, n.clusterOut...)
	n.allLinks = append(n.allLinks, n.clusterIn...)
	n.allLinks = append(n.allLinks, n.ringCW...)
	n.allLinks = append(n.allLinks, n.ringCCW...)
	return n
}

// nodeIdx maps an endpoint into the route table: cluster i at index i, the
// cache node at index clusters.
func (n *Network) nodeIdx(nd Node) int {
	if nd.Kind == CacheNode {
		return n.clusters
	}
	return nd.Index
}

// nodeAt is the inverse of nodeIdx.
func (n *Network) nodeAt(i int) Node {
	if i == n.clusters {
		return Cache
	}
	return Cluster(i)
}

// quadOf returns the crossbar group of a cluster in the 16-cluster system.
func quadOf(c int) int { return c / 4 }

// cacheQuad is the quad the centralized cache hangs off in the hierarchical
// topology.
const cacheQuad = 0

// ringPath returns the ring segments (indices into ringCW/ringCCW) and the
// direction to travel from quad a to quad b, choosing the shorter way
// (ties clockwise).
func ringPath(a, b int) (segments []int, clockwise bool) {
	if a == b {
		return nil, true
	}
	cw := (b - a + 4) % 4
	ccw := (a - b + 4) % 4
	if cw <= ccw {
		segs := make([]int, 0, cw)
		for i := 0; i < cw; i++ {
			segs = append(segs, (a+i)%4)
		}
		return segs, true
	}
	segs := make([]int, 0, ccw)
	for i := 0; i < ccw; i++ {
		segs = append(segs, (a-1-i+4)%4)
	}
	return segs, false
}

// hopPlan is one precomputed ring-segment traversal: the resolved calendar
// (class fallback already applied) and the latency added after its grant.
type hopPlan struct {
	cal *sched.Calendar
	lat uint64
}

// xferPlan is the fully resolved recipe for transferring on one (route,
// requested class) pair. Everything branchy about class resolution — the
// link-heterogeneity downgrade at the sender, the per-segment and receiver
// fallback classes, the per-class latencies, which stats bucket to charge,
// and whether the imbalance detector records the injection — depends only on
// the topology and configuration, so it is computed once at construction and
// the per-Transfer work reduces to calendar reservations and adds.
type xferPlan struct {
	outCal  *sched.Calendar
	outLat  uint64
	hops    []hopPlan
	inCal   *sched.Calendar
	statIdx int   // classIdx of the effective (post-downgrade) class
	note    uint8 // imbalance detector: 0 none, 1 record as B, 2 record as PW
}

// route describes the resources and latency of a path.
type route struct {
	out      *link // source endpoint's outgoing link
	in       *link // destination endpoint's incoming link
	ringSegs []int
	ringCW   bool
	// lengthUnits weights energy: one crossbar traversal = 1, each ring hop
	// = 2 (ring hops have twice the latency, hence roughly twice the wire).
	lengthUnits int

	// plans and the peek shortcuts are indexed by the requested classIdx.
	plans   [3]xferPlan
	peekCal [3]*sched.Calendar // sender out-link plane for the requested class
	peekLat [3]uint64          // end-to-end latency for the requested class
}

func (n *Network) routeFor(from, to Node) *route {
	return &n.routes[n.nodeIdx(from)][n.nodeIdx(to)]
}

// initPlans resolves the per-class transfer plans of a route (see xferPlan).
func (n *Network) initPlans(r *route) {
	for idx, c := range [3]wires.Class{wires.B, wires.PW, wires.L} {
		r.peekCal[idx] = r.out.cal[idx]
		r.peekLat[idx] = n.latency(r, c)

		eff := c
		if c != wires.L && !r.out.has(c) {
			if r.out.has(wires.B) {
				eff = wires.B
			} else {
				eff = wires.PW
			}
		}
		pl := &r.plans[idx]
		pl.outCal = r.out.cal[classIdx(eff)]
		pl.outLat = uint64(n.cfg.Latency(eff))
		pl.statIdx = classIdx(eff)
		for _, seg := range r.ringSegs {
			sl := n.ringCCW[seg]
			if r.ringCW {
				sl = n.ringCW[seg]
			}
			segClass := fallbackClass(sl, eff)
			pl.hops = append(pl.hops, hopPlan{
				cal: sl.cal[classIdx(segClass)],
				lat: uint64(n.cfg.RingLatency(segClass)),
			})
		}
		pl.inCal = r.in.cal[classIdx(fallbackClass(r.in, eff))]
		if n.cfg.Tech.PWLoadBalance {
			switch eff {
			case wires.B:
				pl.note = 1
			case wires.PW:
				pl.note = 2
			}
		}
	}
}

// buildRoute computes a route from scratch; used once per endpoint pair at
// construction to fill the route table.
func (n *Network) buildRoute(from, to Node) route {
	r := route{lengthUnits: 1}
	switch {
	case from.Kind == CacheNode:
		r.out = n.cacheOut
	default:
		r.out = n.clusterOut[from.Index]
	}
	switch {
	case to.Kind == CacheNode:
		r.in = n.cacheIn
	default:
		r.in = n.clusterIn[to.Index]
	}
	if n.cfg.Topology == config.HierRing16 {
		fromQuad, toQuad := cacheQuad, cacheQuad
		if from.Kind == ClusterNode {
			fromQuad = quadOf(from.Index)
		}
		if to.Kind == ClusterNode {
			toQuad = quadOf(to.Index)
		}
		r.ringSegs, r.ringCW = ringPath(fromQuad, toQuad)
		r.lengthUnits += 2 * len(r.ringSegs)
	}
	return r
}

// latency returns the end-to-end pipelined latency of the route for a class.
func (n *Network) latency(r *route, c wires.Class) uint64 {
	lat := uint64(n.cfg.Latency(c))
	lat += uint64(len(r.ringSegs)) * uint64(n.cfg.RingLatency(c))
	return lat
}

// Latency exposes the source-to-destination latency in cycles for a class,
// without reserving bandwidth (used by the core to reason about paths).
func (n *Network) Latency(from, to Node, c wires.Class) uint64 {
	return n.latency(n.routeFor(from, to), c)
}

// Transfer sends `bits` from one node to another on the given wire class,
// beginning no earlier than `ready`. It books one transfer slot on every
// link along the path (sender out-link, ring segments, receiver in-link) and
// returns the cycle at which the message is available at the destination.
// Competing transfers queue in unbounded buffers, surfacing as later slots.
//
// Under link heterogeneity (config.LinkHeterogeneous) a wide-class message
// must take whatever wide class its sender's link provides; the requested
// class is downgraded/upgraded accordingly — exactly the inflexibility the
// paper attributes to that design.
func (n *Network) Transfer(from, to Node, c wires.Class, bits int, ready uint64) uint64 {
	r := n.routeFor(from, to)
	pl := &r.plans[classIdx(c)]
	if pl.outCal == nil {
		panic(fmt.Sprintf("noc: link has no %v plane", c))
	}

	slot := pl.outCal.Reserve(ready)
	wait := slot - ready
	pos := slot + pl.outLat // crossbar traversal to ring/endpoint

	for i := range pl.hops {
		h := &pl.hops[i]
		grant := h.cal.Reserve(pos)
		wait += grant - pos
		pos = grant + h.lat
	}

	grant := pl.inCal.Reserve(pos)
	wait += grant - pos
	arrive := grant // in-link reservation is the delivery cycle

	st := &n.Stats[pl.statIdx]
	st.Transfers++
	st.Bits += uint64(bits)
	st.BitHops += uint64(bits) * uint64(r.lengthUnits)
	st.WaitCycles += wait
	if wait > st.MaxWait {
		st.MaxWait = wait
	}

	// Imbalance detector (precomputed: enabled and effective class is wide).
	switch pl.note {
	case 1:
		n.recentB = append(n.recentB, ready)
	case 2:
		n.recentPW = append(n.recentPW, ready)
	}
	return arrive
}

// PeekTransfer estimates the delivery cycle a Transfer would achieve on the
// given class, without reserving bandwidth. It inspects only the sender's
// outgoing link (what a send buffer can see locally); downstream queueing
// is not included.
func (n *Network) PeekTransfer(from, to Node, c wires.Class, ready uint64) uint64 {
	r := n.routeFor(from, to)
	idx := classIdx(c)
	cal := r.peekCal[idx]
	if cal == nil {
		return ^uint64(0)
	}
	return cal.Peek(ready) + r.peekLat[idx]
}

func pruneRecent(s []uint64, cutoff uint64) []uint64 {
	i := 0
	for i < len(s) && s[i] < cutoff {
		i++
	}
	if i > 0 {
		s = append(s[:0], s[i:]...)
	}
	return s
}

// PreferPW implements the Section 4 interconnect-load-imbalance criterion:
// it reports true when, over the last BalanceWindow cycles, the traffic
// injected into the B plane exceeds the PW plane's by more than
// BalanceThreshold (and symmetric diversion back is handled by the caller
// choosing B when it returns false). Injections older than the window are
// discarded.
func (n *Network) PreferPW(now uint64) bool {
	t := n.cfg.Tech
	if !t.PWLoadBalance {
		return false
	}
	var cutoff uint64
	if w := uint64(t.BalanceWindow); now > w {
		cutoff = now - w
	}
	n.recentB = pruneRecent(n.recentB, cutoff)
	n.recentPW = pruneRecent(n.recentPW, cutoff)
	return len(n.recentB)-len(n.recentPW) > t.BalanceThreshold
}

// PreferB is the symmetric arm of the imbalance detector: it reports true
// when recent PW-plane injections exceed the B plane's by more than the
// threshold, so traffic that would default to PW wires (store data, ready
// operands) is steered back to the less congested B plane.
func (n *Network) PreferB(now uint64) bool {
	t := n.cfg.Tech
	if !t.PWLoadBalance {
		return false
	}
	var cutoff uint64
	if w := uint64(t.BalanceWindow); now > w {
		cutoff = now - w
	}
	n.recentB = pruneRecent(n.recentB, cutoff)
	n.recentPW = pruneRecent(n.recentPW, cutoff)
	return len(n.recentPW)-len(n.recentB) > t.BalanceThreshold
}

// Reset restores the network to its just-constructed state: every link
// calendar rewound, traffic statistics and the load-balance injection
// history cleared. Topology and route plans are immutable and stay.
func (n *Network) Reset() {
	for _, l := range n.allLinks {
		for _, cal := range l.cal {
			if cal != nil {
				cal.Reset()
			}
		}
	}
	n.Stats = [3]ClassStats{}
	n.recentB = n.recentB[:0]
	n.recentPW = n.recentPW[:0]
}

// ResetStats zeroes the traffic statistics (for post-warmup measurement).
func (n *Network) ResetStats() {
	n.Stats = [3]ClassStats{}
}

// TotalWaitCycles sums buffered-contention cycles across classes.
func (n *Network) TotalWaitCycles() uint64 {
	var sum uint64
	for _, s := range n.Stats {
		sum += s.WaitCycles
	}
	return sum
}

// StatsFor returns the accumulated stats for a class.
func (n *Network) StatsFor(c wires.Class) ClassStats { return n.Stats[classIdx(c)] }

// LinkInventory describes the physical wires present, for leakage
// accounting: total wire-length units per class across every link in the
// network. Each directional cluster link contributes its own wires x 1
// length unit (links differ under link heterogeneity); cache links are
// double-width and ring segments double-length.
func (n *Network) LinkInventory() map[wires.Class]float64 {
	inv := make(map[wires.Class]float64, 3)
	addLink := func(l *link, lengthUnits float64) {
		for _, c := range []wires.Class{wires.B, wires.PW, wires.L} {
			if w := float64(l.spec.TotalWires(c)); w > 0 {
				inv[c] += w * lengthUnits
			}
		}
	}
	for i := range n.clusterOut {
		addLink(n.clusterOut[i], 1)
		addLink(n.clusterIn[i], 1)
	}
	addLink(n.cacheOut, 1) // spec already double-width
	addLink(n.cacheIn, 1)
	for i := range n.ringCW {
		addLink(n.ringCW[i], 2) // ring hops are double-length
		addLink(n.ringCCW[i], 2)
	}
	return inv
}
