package core

import (
	"context"
	"fmt"

	"hetwire/internal/cache"
	"hetwire/internal/config"
	"hetwire/internal/noc"
	"hetwire/internal/sched"
	"hetwire/internal/trace"
)

// SharedFabric is the part of the machine that multiprogrammed threads
// share: the inter-cluster network (links, buffers, imbalance detector) and
// the centralized memory hierarchy. The paper motivates 16-cluster machines
// partly through thread-level parallelism; this realises the natural
// partitioned-TLP organisation — each thread owns a disjoint set of
// clusters but contends for wires and cache.
type SharedFabric struct {
	net *noc.Network
	mem *cache.Hierarchy
	// tl is the shared calendars' timeline. Its floor is the lowest fetch
	// frontier among the threads still running, kept by
	// RunMultiprogramContext.
	tl sched.Timeline
}

// NewSharedFabric builds the shared interconnect and memory for a
// configuration.
func NewSharedFabric(cfg config.Config) *SharedFabric {
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	fab := &SharedFabric{}
	fab.net = noc.New(cfg, &fab.tl)
	fab.mem = newHierarchy(cfg.Core, &fab.tl)
	return fab
}

// NewOnFabric builds a processor context (front end, clusters, LSQ
// sequencing) that executes on a shared fabric, restricted to the given
// clusters. The cluster list must be non-empty and within the topology.
func NewOnFabric(cfg config.Config, fab *SharedFabric, clusters []int) *Processor {
	if len(clusters) == 0 {
		panic("core: thread needs at least one cluster")
	}
	for _, c := range clusters {
		if c < 0 || c >= cfg.Topology.Clusters() {
			panic(fmt.Sprintf("core: cluster %d outside topology", c))
		}
	}
	p := newCore(cfg)
	p.fabric = &fab.tl
	p.net = fab.net
	p.mem = fab.mem
	p.bp = newPredictor(cfg.Core)
	p.allowed = append([]int(nil), clusters...)
	for r := range p.regCluster {
		p.regCluster[r] = uint8(clusters[r%len(clusters)])
	}
	return p
}

// candidateClusters returns the clusters this processor may steer to.
func (p *Processor) candidateClusters() []int {
	if p.allowed != nil {
		return p.allowed
	}
	if p.all == nil {
		p.all = make([]int, p.nClusters)
		for i := range p.all {
			p.all[i] = i
		}
	}
	return p.all
}

// ThreadResult pairs a thread's statistics with its cluster allocation.
type ThreadResult struct {
	Stats    Stats
	Clusters []int
}

// RunMultiprogram executes one instruction stream per thread on a machine
// with a shared interconnect and cache, partitioning the clusters evenly.
// Threads are interleaved by their commit frontier so the shared calendars
// see time-aligned contention. Per-thread Stats carry private pipeline
// statistics; the network counters in each Stats describe the whole shared
// fabric and are therefore identical across threads.
// It is RunMultiprogramContext with a background context, and like Run it
// panics with any error, which only a broken engine invariant can cause.
func RunMultiprogram(cfg config.Config, streams []trace.Stream, n uint64) []ThreadResult {
	out, err := RunMultiprogramContext(context.Background(), cfg, streams, n)
	if err != nil {
		panic(err)
	}
	return out
}
