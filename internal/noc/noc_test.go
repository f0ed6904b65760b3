package noc

import (
	"testing"
	"testing/quick"

	"hetwire/internal/config"
	"hetwire/internal/wires"
)

func net4(model config.ModelID) *Network {
	cfg := config.Default().WithModel(model)
	return New(cfg, nil)
}

func net16(model config.ModelID) *Network {
	cfg := config.Default().WithModel(model)
	cfg.Topology = config.HierRing16
	return New(cfg, nil)
}

func TestCrossbarLatenciesPerClass(t *testing.T) {
	n := net4(config.ModelX)
	from, to := Cluster(0), Cluster(1)
	if got := n.Latency(from, to, wires.B); got != 2 {
		t.Errorf("B latency = %d, want 2", got)
	}
	if got := n.Latency(from, to, wires.PW); got != 3 {
		t.Errorf("PW latency = %d, want 3", got)
	}
	if got := n.Latency(from, to, wires.L); got != 1 {
		t.Errorf("L latency = %d, want 1", got)
	}
}

func TestTransferDeliversAfterLatency(t *testing.T) {
	n := net4(config.ModelI)
	arrive := n.Transfer(Cluster(0), Cache, wires.B, 72, 100)
	if arrive != 102 {
		t.Errorf("arrival = %d, want 102 (2-cycle crossbar)", arrive)
	}
}

// TestLinkContentionSerializes: Model I gives each cluster one B transfer
// per cycle per direction; three simultaneous sends from one cluster are
// spaced out, and WaitCycles records the queueing.
func TestLinkContentionSerializes(t *testing.T) {
	n := net4(config.ModelI)
	a1 := n.Transfer(Cluster(0), Cluster(1), wires.B, 72, 50)
	a2 := n.Transfer(Cluster(0), Cluster(2), wires.B, 72, 50)
	a3 := n.Transfer(Cluster(0), Cluster(3), wires.B, 72, 50)
	if a1 != 52 || a2 != 53 || a3 != 54 {
		t.Errorf("arrivals = %d,%d,%d, want 52,53,54", a1, a2, a3)
	}
	if w := n.StatsFor(wires.B).WaitCycles; w != 3 {
		t.Errorf("wait cycles = %d, want 3 (0+1+2)", w)
	}
}

// TestCacheLinkHasDoubleBandwidth: the cache in-link accepts two B transfers
// per cycle under Model I (paper Section 4: cache links have twice the
// wires).
func TestCacheLinkHasDoubleBandwidth(t *testing.T) {
	n := net4(config.ModelI)
	// Sends from different clusters: out-links don't conflict; the cache
	// in-link is the shared resource.
	a1 := n.Transfer(Cluster(0), Cache, wires.B, 72, 10)
	a2 := n.Transfer(Cluster(1), Cache, wires.B, 72, 10)
	a3 := n.Transfer(Cluster(2), Cache, wires.B, 72, 10)
	if a1 != 12 || a2 != 12 {
		t.Errorf("first two arrivals = %d,%d, want 12,12", a1, a2)
	}
	if a3 != 13 {
		t.Errorf("third arrival = %d, want 13 (cache in-link full)", a3)
	}
}

// TestSeparatePlanesDoNotContend: B and L traffic on the same link use
// independent wire planes.
func TestSeparatePlanesDoNotContend(t *testing.T) {
	n := net4(config.ModelVII) // B + L
	a1 := n.Transfer(Cluster(0), Cluster(1), wires.B, 72, 20)
	a2 := n.Transfer(Cluster(0), Cluster(1), wires.B, 72, 20)
	aL := n.Transfer(Cluster(0), Cluster(1), wires.L, 18, 20)
	if a1 != 22 || a2 != 23 {
		t.Errorf("B arrivals = %d,%d, want 22,23", a1, a2)
	}
	if aL != 21 {
		t.Errorf("L arrival = %d, want 21 (independent plane, 1-cycle latency)", aL)
	}
}

func TestTransferOnAbsentPlanePanics(t *testing.T) {
	n := net4(config.ModelI)
	defer func() {
		if recover() == nil {
			t.Error("transfer on missing L plane did not panic")
		}
	}()
	n.Transfer(Cluster(0), Cluster(1), wires.L, 18, 0)
}

func TestRingPath(t *testing.T) {
	cases := []struct {
		a, b int
		segs int
		cw   bool
	}{
		{0, 0, 0, true},
		{0, 1, 1, true},
		{0, 2, 2, true}, // tie broken clockwise
		{0, 3, 1, false},
		{3, 0, 1, true},
		{2, 0, 2, true},
	}
	for _, c := range cases {
		segs, cw := ringPath(c.a, c.b)
		if len(segs) != c.segs || (len(segs) > 0 && cw != c.cw) {
			t.Errorf("ringPath(%d,%d) = %d segs cw=%v, want %d segs cw=%v",
				c.a, c.b, len(segs), cw, c.segs, c.cw)
		}
	}
}

// TestHierarchicalLatencies: paper Table 2 — 16-cluster system, B wires:
// crossbar 2 + ring hop 4 per hop.
func TestHierarchicalLatencies(t *testing.T) {
	n := net16(config.ModelI)
	// Same quad: crossbar only.
	if got := n.Latency(Cluster(0), Cluster(3), wires.B); got != 2 {
		t.Errorf("same-quad latency = %d, want 2", got)
	}
	// Adjacent quad (quad 0 -> 1): crossbar + 1 ring hop.
	if got := n.Latency(Cluster(0), Cluster(4), wires.B); got != 6 {
		t.Errorf("adjacent-quad latency = %d, want 6", got)
	}
	// Opposite quad (0 -> 2): crossbar + 2 ring hops.
	if got := n.Latency(Cluster(0), Cluster(8), wires.B); got != 10 {
		t.Errorf("opposite-quad latency = %d, want 10", got)
	}
	// Cache hangs off quad 0: cluster 15 (quad 3) is one hop away.
	if got := n.Latency(Cluster(15), Cache, wires.B); got != 6 {
		t.Errorf("cluster15->cache latency = %d, want 6", got)
	}
}

// TestRingSegmentContention: two cross-quad transfers sharing a ring segment
// serialize on it.
func TestRingSegmentContention(t *testing.T) {
	n := net16(config.ModelI)
	// Both 0->4 and 1->4 traverse ring segment 0 clockwise.
	a1 := n.Transfer(Cluster(0), Cluster(4), wires.B, 72, 10)
	a2 := n.Transfer(Cluster(1), Cluster(4), wires.B, 72, 10)
	if a1 != 16 {
		t.Errorf("first arrival = %d, want 16", a1)
	}
	if a2 != 17 {
		t.Errorf("second arrival = %d, want 17 (ring segment busy)", a2)
	}
}

// TestImbalanceDetector: the Section 4 detector fires only after the B-PW
// injection difference inside the window exceeds the threshold.
func TestImbalanceDetector(t *testing.T) {
	cfg := config.Default().WithModel(config.ModelV) // B + PW
	n := New(cfg, nil)
	if n.PreferPW(100) {
		t.Fatal("detector fired with no traffic")
	}
	// 11 B injections in one cycle, threshold is 10.
	for i := 0; i < 11; i++ {
		n.Transfer(Cluster(0), Cluster(1), wires.B, 72, 100)
	}
	if !n.PreferPW(101) {
		t.Error("detector should fire after 11 B injections vs 0 PW")
	}
	// Outside the 5-cycle window the injections age out.
	if n.PreferPW(200) {
		t.Error("detector fired on stale traffic")
	}
}

func TestImbalanceDisabledWithoutTechnique(t *testing.T) {
	n := net4(config.ModelI) // no PW wires: balancing off
	for i := 0; i < 50; i++ {
		n.Transfer(Cluster(0), Cluster(1), wires.B, 72, 10)
	}
	if n.PreferPW(11) {
		t.Error("detector must stay off when the technique is disabled")
	}
}

// TestEnergyAccounting: bits and bit-hops accumulate with path length.
func TestEnergyAccounting(t *testing.T) {
	n := net16(config.ModelI)
	n.Transfer(Cluster(0), Cluster(1), wires.B, 72, 0)  // same quad: 1 unit
	n.Transfer(Cluster(0), Cluster(8), wires.B, 72, 50) // 2 ring hops: 5 units
	st := n.StatsFor(wires.B)
	if st.Transfers != 2 || st.Bits != 144 {
		t.Errorf("transfers/bits = %d/%d, want 2/144", st.Transfers, st.Bits)
	}
	if st.BitHops != 72*1+72*5 {
		t.Errorf("bit-hops = %d, want %d", st.BitHops, 72*6)
	}
}

// TestLinkInventory4Cluster: Model I on 4 clusters: 72 B wires x (2x4
// cluster directions) + 144 x 2 cache directions = 864 wire-units.
func TestLinkInventory4Cluster(t *testing.T) {
	n := net4(config.ModelI)
	inv := n.LinkInventory()
	if got := inv[wires.B]; got != 72*8+144*2 {
		t.Errorf("B inventory = %.0f, want %d", got, 72*8+144*2)
	}
	if _, ok := inv[wires.L]; ok {
		t.Error("Model I must have no L inventory")
	}
	// Model VII adds 18 L wires per cluster direction and 36 per cache
	// direction.
	n7 := net4(config.ModelVII)
	if got := n7.LinkInventory()[wires.L]; got != 18*8+36*2 {
		t.Errorf("L inventory = %.0f, want %d", got, 18*8+36*2)
	}
}

// TestTransferNeverEarlierThanLatency: property — arrival >= ready + class
// latency for arbitrary endpoints on the 16-cluster network.
func TestTransferNeverEarlierThanLatency(t *testing.T) {
	n := net16(config.ModelX)
	f := func(fromRaw, toRaw uint8, classRaw uint8, readyRaw uint16) bool {
		from := Cluster(int(fromRaw) % 16)
		to := Cluster(int(toRaw) % 16)
		class := []wires.Class{wires.B, wires.PW, wires.L}[classRaw%3]
		ready := uint64(readyRaw)
		arrive := n.Transfer(from, to, class, 72, ready)
		return arrive >= ready+n.Latency(from, to, class)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNodeString(t *testing.T) {
	if Cluster(3).String() != "cluster3" || Cache.String() != "cache" {
		t.Error("node names wrong")
	}
}

// TestPreferBSymmetry: the reverse arm of the imbalance detector fires when
// PW injections dominate.
func TestPreferBSymmetry(t *testing.T) {
	cfg := config.Default().WithModel(config.ModelV)
	n := New(cfg, nil)
	for i := 0; i < 11; i++ {
		n.Transfer(Cluster(0), Cluster(1), wires.PW, 72, 100)
	}
	if !n.PreferB(101) {
		t.Error("PreferB should fire after 11 PW injections vs 0 B")
	}
	if n.PreferPW(101) {
		t.Error("PreferPW must not fire when PW is the congested plane")
	}
}

// TestPeekTransferEstimatesWithoutBooking: peeking twice gives the same
// answer; booking then shifts it.
func TestPeekTransferEstimatesWithoutBooking(t *testing.T) {
	n := net4(config.ModelI)
	p1 := n.PeekTransfer(Cluster(0), Cluster(1), wires.B, 10)
	p2 := n.PeekTransfer(Cluster(0), Cluster(1), wires.B, 10)
	if p1 != p2 || p1 != 12 {
		t.Fatalf("peeks = %d, %d; want 12, 12", p1, p2)
	}
	n.Transfer(Cluster(0), Cluster(2), wires.B, 72, 10) // books the out-link
	if p3 := n.PeekTransfer(Cluster(0), Cluster(1), wires.B, 10); p3 != 13 {
		t.Errorf("peek after booking = %d, want 13", p3)
	}
	// A missing plane peeks as unreachable.
	if n.PeekTransfer(Cluster(0), Cluster(1), wires.L, 10) != ^uint64(0) {
		t.Error("peek on a missing plane should be unreachable")
	}
}

// TestResetStatsKeepsReservations: statistics clear but link bookings
// persist (warmup semantics).
func TestResetStatsKeepsReservations(t *testing.T) {
	n := net4(config.ModelI)
	n.Transfer(Cluster(0), Cluster(1), wires.B, 72, 10)
	n.ResetStats()
	if n.StatsFor(wires.B).Transfers != 0 {
		t.Fatal("stats survived reset")
	}
	// Cycle 10 on the out-link is still booked.
	if a := n.Transfer(Cluster(0), Cluster(2), wires.B, 72, 10); a != 13 {
		t.Errorf("arrival = %d, want 13 (slot 10 still taken)", a)
	}
}

// TestLinkHeterogeneousAlternative: the Section 3 low-complexity design —
// even cluster links all-B, odd links all-PW at equal area; messages take
// whatever the link provides.
func TestLinkHeterogeneousAlternative(t *testing.T) {
	cfg := config.Default().WithModel(config.ModelV) // 72 B + 144 PW per direction
	cfg.LinkHeterogeneous = true
	n := New(cfg, nil)

	// Cluster 0 (even): B-only link. Area 2*72+144 = 288 PW units -> 144
	// B-unit halves -> 144 B wires = 2 transfers/cycle.
	a := n.Transfer(Cluster(0), Cluster(1), wires.PW, 72, 10) // downgraded to B
	if a != 12 {
		t.Errorf("even-link transfer arrived %d, want 12 (B latency)", a)
	}
	if n.StatsFor(wires.PW).Transfers != 0 {
		t.Error("PW plane used on an all-B link")
	}

	// Cluster 1 (odd): PW-only link: a B request is diverted to PW.
	b := n.Transfer(Cluster(1), Cluster(2), wires.B, 72, 10)
	if b != 13 {
		t.Errorf("odd-link transfer arrived %d, want 13 (PW latency)", b)
	}
	if n.StatsFor(wires.B).Transfers != 1 {
		t.Errorf("B transfers = %d, want 1 (only the even-link one)", n.StatsFor(wires.B).Transfers)
	}
}

// TestLinkHeterogeneousKeepsLWires: L wires stay on every link in the
// alternative topology.
func TestLinkHeterogeneousKeepsLWires(t *testing.T) {
	cfg := config.Default().WithModel(config.ModelX)
	cfg.LinkHeterogeneous = true
	n := New(cfg, nil)
	a := n.Transfer(Cluster(1), Cluster(0), wires.L, 18, 5)
	if a != 6 {
		t.Errorf("L transfer on an odd link arrived %d, want 6", a)
	}
}

// TestMaxWaitTracksWorstMessage: the longest buffered wait is recorded.
func TestMaxWaitTracksWorstMessage(t *testing.T) {
	n := net4(config.ModelI)
	for i := 0; i < 5; i++ {
		n.Transfer(Cluster(0), Cluster(1), wires.B, 72, 100)
	}
	if got := n.StatsFor(wires.B).MaxWait; got != 4 {
		t.Errorf("MaxWait = %d, want 4 (fifth message waits four cycles)", got)
	}
}
