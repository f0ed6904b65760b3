package core

import (
	"hetwire/internal/cache"
	"hetwire/internal/narrow"
	"hetwire/internal/noc"
	"hetwire/internal/trace"
	"hetwire/internal/wires"
)

// Message sizes in bits (Section 3/4): a full operand or address transfer
// carries 64 bits of data plus up to 8 bits of tag on B/PW wires; an L-wire
// transfer carries 18 bits (8 tag + 10 data, or tag + LS address bits); the
// most-significant address bits follow on B-wires after an LS-bit prefix;
// a branch mispredict signal carries only the branch ID.
const (
	bitsFull    = 72
	bitsL       = 18
	bitsMSAddr  = 54
	bitsMispred = 8
)

// step advances the model by one dynamic instruction.
func (p *Processor) step(ins *trace.Instr) {
	seq := p.lsq.nextSeq()
	p.s.Instructions++
	myCfg := &p.cfg

	// ---------------- Fetch ----------------
	fetchReq := maxU(p.tl.Floor, p.redirectAt)

	// Instruction-cache access on crossing into a new line (or after a
	// redirect, which clears curFetchLine).
	if line := ins.PC &^ uint64(myCfg.Core.LineBytes-1); line != p.curFetchLine {
		done, _ := p.mem.FetchAccess(ins.PC, fetchReq)
		if done > fetchReq+1 {
			fetchReq = done - 1 // miss: stall until the line arrives
		}
		p.curFetchLine = line
	}

	// Fetch-queue entry (freed at dispatch) and fetch bandwidth.
	fetchReq = maxU(fetchReq, p.fetchQ.Acquire(fetchReq))
	fetchAt := p.fetchCal.Reserve(fetchReq)

	// At most MaxBlocksFetch basic blocks per cycle: a block boundary is
	// the instruction after a taken branch.
	if p.pendingBlockStart {
		for {
			if fetchAt != p.blkCycle {
				p.blkCycle, p.blkCount = fetchAt, 1
				break
			}
			if p.blkCount < myCfg.Core.MaxBlocksFetch {
				p.blkCount++
				break
			}
			fetchAt = p.fetchCal.Reserve(fetchAt + 1)
		}
		p.pendingBlockStart = false
	}
	p.tl.Floor = fetchAt // the fetch frontier is the calendars' floor

	// Branch prediction happens at fetch.
	mispredict := false
	if ins.Op == trace.Branch {
		p.s.Branches++
		dirCorrect := p.bp.UpdateDirection(ins.PC, ins.Taken)
		if ins.Taken {
			tgt, hit := p.bp.LookupTarget(ins.PC)
			if !hit || tgt != ins.Target {
				mispredict = true // misfetch: no (correct) target available
			}
			p.bp.UpdateTarget(ins.PC, ins.Target)
			p.pendingBlockStart = true
		}
		if !dirCorrect {
			mispredict = true
		}
		if mispredict {
			p.s.Mispredicts++
		}
	}

	// ---------------- Dispatch / rename / steer ----------------
	dispatchReq := maxU(fetchAt+frontDepth, p.lastDispatch)
	// ROB slot: instruction i needs the commit of instruction i-ROBSize.
	if oldest := p.rob[p.robPos]; oldest+1 > dispatchReq {
		dispatchReq = oldest + 1
	}

	clusterID := p.steer(ins, dispatchReq)
	cl := &p.clusters[clusterID]
	iq, regs, fp := cl.intIQ, cl.intRegs, 0
	if ins.Op.IsFP() {
		iq, regs, fp = cl.fpIQ, cl.fpRegs, 1
	}
	dispatchReq = maxU(dispatchReq, iq.Acquire(dispatchReq))
	if ins.Dest != trace.NoReg {
		dispatchReq = maxU(dispatchReq, regs.Acquire(dispatchReq))
	}
	dispatchAt := p.dispatchCal.Reserve(dispatchReq)
	p.lastDispatch = dispatchAt
	p.fetchQ.Commit(dispatchAt)
	p.s.SumDispatchStall += dispatchAt - (fetchAt + frontDepth)

	// ---------------- Source operands ----------------
	ready := dispatchAt + 1
	var src2Ready uint64
	if ins.Src1 != trace.NoReg {
		if at := p.operandReady(ins.Src1, clusterID, dispatchAt); at > ready {
			ready = at
		}
	}
	if ins.Src2 != trace.NoReg {
		at := p.operandReady(ins.Src2, clusterID, dispatchAt)
		src2Ready = at
		// A store's data operand feeds the store-data transfer, not address
		// generation: stores issue AGEN as soon as the base register is ready.
		if ins.Op != trace.Store && at > ready {
			ready = at
		}
	}

	p.s.SumSrcWait += ready - (dispatchAt + 1)

	// ---------------- Issue / execute ----------------
	issueAt := cl.fus[fuFor(ins.Op)].Reserve(ready)
	p.s.SumFUWait += issueAt - ready
	iq.Commit(issueAt + 1)
	// Patch the cached free row in place: the committed entry releases after
	// the row's cycle, so the wheel's exact occupancy is the row's new value.
	p.freeIQ[fp][clusterID] = int32(iq.Size() - iq.Occupied())
	execDone := issueAt + uint64(ins.Op.Latency())

	// ---------------- Op-specific back end ----------------
	completion := execDone
	destReady := execDone
	me := noc.Cluster(clusterID)

	switch ins.Op {
	case trace.Branch:
		if mispredict {
			arrive := p.net.Transfer(me, noc.Cache, p.mispredCls, bitsMispred, execDone)
			if arrive+1 > p.redirectAt {
				p.redirectAt = arrive + 1
			}
			p.curFetchLine = 0 // refetch re-reads the I-cache
		}

	case trace.Load:
		p.s.Loads++
		t := p.sendAddress(me, ins.Addr, execDone, true)
		var dataAt uint64
		level := cache.LevelL1
		if t.forwarded {
			p.s.StoreForwards++
			dataAt = t.dataAt
		} else {
			dataAt, level = p.mem.DataAccess(ins.Addr, t.indexReady, t.start)
		}
		retClass, retBits := p.wideCls, bitsFull
		if p.criticalOnL && level != cache.LevelL1 &&
			narrow.IsNarrow(ins.Value, p.narrowMax) {
			// Critical-word return from L2/memory on L-wires: the cache
			// holds the value, so width detection is exact.
			retClass, retBits = wires.L, bitsL
			p.s.CriticalWordOnL++
		} else if p.hasB && p.balanceOn && p.net.PreferPW(dataAt) {
			retClass = wires.PW
			p.s.BalancePW++
		}
		destReady = p.net.Transfer(noc.Cache, me, retClass, retBits, dataAt)
		completion = destReady
		p.s.SumLoadLatency += destReady - execDone
		p.s.SumLSQWait += t.start - t.partialAt

	case trace.Store:
		p.s.Stores++
		t := p.sendAddress(me, ins.Addr, execDone, false)
		// Store data ships to the LSQ when the data operand is ready
		// (criterion 2: PW wires, paper Section 4).
		dataStart := maxU(src2Ready, dispatchAt+1)
		dataClass := p.wideCls
		if p.pwStoreData {
			// Symmetric balancing: when the PW plane is the congested one
			// right now, this store's data rides B instead.
			if !p.net.PreferB(dataStart) {
				dataClass = wires.PW
				p.s.StoreDataPW++
			}
		} else if p.balanceOn && p.net.PreferPW(dataStart) {
			dataClass = wires.PW
			p.s.BalancePW++
		}
		dataArr := p.net.Transfer(me, noc.Cache, dataClass, bitsFull, dataStart)
		completion = maxU(t.fullKnown, dataArr)
		lag := t.fullKnown - dispatchAt
		p.s.SumStoreAddrLag += lag
		if lag > p.s.MaxStoreAddrLag {
			p.s.MaxStoreAddrLag = lag
		}
		// The store occupies the LSQ until commit; its commit time is
		// computed below, so the entry is registered after that.
		p.pendingStore = lsqStore{
			addr:      ins.Addr,
			partialAt: t.partialAt,
			fullAt:    t.fullKnown,
			dataAt:    dataArr,
		}
		p.havePendingStore = true
	}

	// ---------------- Commit ----------------
	commitReq := maxU(completion+1, p.lastCommit)
	commitAt := p.commitCal.Reserve(commitReq)
	p.lastCommit = commitAt
	p.rob[p.robPos] = commitAt
	p.robPos++
	if p.robPos == len(p.rob) {
		p.robPos = 0
	}

	if p.havePendingStore {
		p.pendingStore.commitAt = commitAt
		p.lsq.addStore(p.pendingStore)
		p.havePendingStore = false
	}

	if p.Observer != nil {
		p.Observer(InstrTiming{
			Seq: seq, PC: ins.PC, Op: ins.Op, Cluster: clusterID,
			Fetch: fetchAt, Dispatch: dispatchAt, Issue: issueAt,
			Complete: completion, Commit: commitAt, Mispred: mispredict,
		})
	}

	// ---------------- Writeback / rename update ----------------
	if ins.Dest != trace.NoReg {
		regs.Commit(commitAt)
		p.freeRegs[fp][clusterID] = int32(regs.Size() - regs.Occupied())
		isFP := ins.Op.IsFP()
		isNarrow := !isFP && narrow.IsNarrow(ins.Value, p.narrowMax)
		pred := false
		if !isFP && ins.Op != trace.Store {
			prePred := p.np.Record(ins.PC, isNarrow)
			switch {
			case p.narrowOrcl:
				pred = isNarrow
			case p.narrowOps:
				pred = prePred
			}
		}
		if p.fvEnabled && !isFP {
			p.fvt.Observe(ins.Value)
		}
		d := ins.Dest
		p.regCluster[d] = uint8(clusterID)
		p.regReady[d] = destReady
		p.regValue[d] = ins.Value
		p.regNarrow[d] = b2u8(isNarrow)
		p.regPredNarrow[d] = b2u8(pred)
		p.regGen[d]++ // invalidates every cached per-cluster copy time
	}
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// operandReady returns the cycle the source register's value is available
// in the consuming cluster, inserting a copy transfer on the heterogeneous
// interconnect when the producer lives elsewhere. Copies are shared: a
// second consumer in the same cluster reuses the first transfer (the
// arrived cache, generation-stamped against the producer's rename).
//
// The wire-class decision is the paper's priority ladder with its
// configuration-static part precomputed into xferTab (see initDerived); the
// frequent-value arm and the PreferB/PreferPW congestion checks are the only
// dynamic conditions left, evaluated in the ladder's original order so side
// effects (FV-table lookups, recent-injection pruning) are identical.
func (p *Processor) operandReady(src int16, clusterID int, dispatchAt uint64) uint64 {
	prodCluster := int(p.regCluster[src])
	if prodCluster == clusterID {
		p.s.LocalOperands++
		return p.regReady[src]
	}
	ai := int(src)*maxClusters + clusterID
	gen := p.regGen[src]
	if p.arrivedGen[ai] == gen {
		p.s.LocalOperands++ // already in flight to this cluster; shared copy
		return p.arrivedAt[ai]
	}
	p.s.OperandTransfers++
	nar := p.regNarrow[src]
	if nar != 0 {
		p.s.NarrowEligible++
	}

	from, to := noc.Cluster(prodCluster), noc.Cluster(clusterID)
	ready := p.regReady[src]
	start := maxU(ready, dispatchAt+1)
	ti := int(p.regPredNarrow[src])<<2 | int(nar)<<1
	if ready <= dispatchAt {
		ti |= 1
	}
	var arrive uint64
	if a := p.xferTab[ti]; a == xNarrowL {
		arrive = p.net.Transfer(from, to, wires.L, bitsL, start)
		p.s.NarrowTransfers++
	} else if p.fvEnabled && p.fvt.Contains(p.regValue[src]) &&
		p.net.PeekTransfer(from, to, wires.L, start) <= p.net.PeekTransfer(from, to, p.wideCls, start) {
		// The value is encodable as a 3-bit frequent-value index plus tag,
		// and the send buffer sees the L plane delivering no later than the
		// wide plane (L-wires are shared with the address LS bits, so a
		// congested L plane must not be flooded with compacted values).
		arrive = p.net.Transfer(from, to, wires.L, bitsL, start)
		p.s.FVTransfers++
	} else {
		wide := true
		switch a {
		case xNarrowMiss:
			// Predicted narrow but wide: the L-wire transfer is wasted and the
			// value is re-sent on B-wires once the width is detected.
			p.net.Transfer(from, to, wires.L, bitsL, start)
			arrive = p.net.Transfer(from, to, p.wideCls, bitsFull, start+1)
			p.s.NarrowMispredicted++
			wide = false
		case xReadyPW:
			if !p.net.PreferB(start) {
				arrive = p.net.Transfer(from, to, wires.PW, bitsFull, start)
				p.s.ReadyOperandPW++
				wide = false
			}
		}
		if wide {
			if p.balanceOn && p.net.PreferPW(start) {
				arrive = p.net.Transfer(from, to, wires.PW, bitsFull, start)
				p.s.BalancePW++
			} else {
				arrive = p.net.Transfer(from, to, p.wideCls, bitsFull, start)
			}
		}
	}
	p.arrivedAt[ai] = arrive
	p.arrivedGen[ai] = gen
	return arrive
}

// addrTiming bundles the LSQ arrival results for one memory operation.
type addrTiming struct {
	loadTiming
	partialAt uint64
	fullKnown uint64
}

// sendAddress transmits a load/store effective address from the cluster to
// the centralized LSQ, using the split LS-bits-on-L-wires pipeline when
// enabled. Loads additionally run memory disambiguation against earlier
// in-flight stores; stores only need their arrival times recorded.
func (p *Processor) sendAddress(from noc.Node, addr uint64, addrDone uint64, isLoad bool) addrTiming {
	if p.lwirePipe {
		lsArr := p.net.Transfer(from, noc.Cache, wires.L, bitsL, addrDone)
		msArr := p.net.Transfer(from, noc.Cache, p.wideCls, bitsMSAddr, addrDone)
		out := addrTiming{partialAt: lsArr, fullKnown: msArr}
		if isLoad {
			out.loadTiming = p.lsq.disambiguatePartial(addr, lsArr, msArr)
			p.recordLSQ(out.loadTiming)
		}
		return out
	}
	class := p.wideCls
	if p.hasB && p.balanceOn && p.net.PreferPW(addrDone) {
		class = wires.PW
		p.s.BalancePW++
	}
	full := p.net.Transfer(from, noc.Cache, class, bitsFull, addrDone)
	out := addrTiming{partialAt: full, fullKnown: full}
	if isLoad {
		out.loadTiming = p.lsq.disambiguateFull(addr, full)
	}
	return out
}

func (p *Processor) recordLSQ(lt loadTiming) {
	if lt.partialChecked {
		p.s.PartialChecks++
		if lt.falseDep {
			p.s.PartialFalseDeps++
		}
	}
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
