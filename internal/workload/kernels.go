package workload

// Kernels returns synthetic microbenchmark profiles that isolate one
// machine behaviour each — useful for studying a single bottleneck the way
// the SPEC-like profiles cannot. They reuse the same generator machinery
// and are fully deterministic.
func Kernels() []Profile {
	return []Profile{
		{
			// pchase: dependent loads over a huge region — pure memory
			// latency, near-zero ILP. The worst case for any interconnect.
			Name: "pchase", Seed: 9001,
			FracLoad: 0.40, FracStore: 0.02, FracBranch: 0.06,
			FracFP: 0, FracMul: 0,
			DepP: 0.85, FarDepFrac: 0.05,
			BiasedFrac: 0.80, LoopFrac: 0.15, RandTakenP: 0.5,
			WorkingSetKB: 64, BigRegionMB: 64, BigFrac: 0.60, StrideFrac: 0.02,
			BiasP: 0.99, NarrowFrac: 0.05, StaticBlocks: 64,
		},
		{
			// stream: unit-stride vector walks with wide fp ILP — the
			// bandwidth extreme, where PW-wires shine.
			Name: "stream", Seed: 9002,
			FracLoad: 0.34, FracStore: 0.16, FracBranch: 0.02,
			FracFP: 0.90, FracMul: 0.30,
			DepP: 0.30, FarDepFrac: 0.45,
			BiasedFrac: 0.20, LoopFrac: 0.78, RandTakenP: 0.5,
			WorkingSetKB: 32, BigRegionMB: 4, BigFrac: 0.50, StrideFrac: 0.98,
			BiasP: 0.995, NarrowFrac: 0.02, StaticBlocks: 32,
		},
		{
			// brstorm: short blocks of barely-predictable branches — the
			// mispredict-signal path's stress test.
			Name: "brstorm", Seed: 9003,
			FracLoad: 0.10, FracStore: 0.04, FracBranch: 0.24,
			FracFP: 0, FracMul: 0,
			DepP: 0.60, FarDepFrac: 0.30,
			BiasedFrac: 0.25, LoopFrac: 0.10, RandTakenP: 0.45,
			WorkingSetKB: 16, BigRegionMB: 1, BigFrac: 0, StrideFrac: 0.3,
			NarrowFrac: 0.30, StaticBlocks: 512,
		},
		{
			// alu: register-to-register integer chains that fit entirely in
			// cluster-local resources — the communication minimum.
			Name: "alu", Seed: 9004,
			FracLoad: 0.06, FracStore: 0.02, FracBranch: 0.06,
			FracFP: 0, FracMul: 0.05,
			DepP: 0.55, FarDepFrac: 0.40,
			BiasedFrac: 0.75, LoopFrac: 0.22, RandTakenP: 0.5,
			WorkingSetKB: 16, BigRegionMB: 1, BigFrac: 0, StrideFrac: 0.5,
			BiasP: 0.99, NarrowFrac: 0.40, StaticBlocks: 96,
		},
		{
			// xfer: deliberately scattered dependences — the communication
			// maximum, where L-wires matter most.
			Name: "xfer", Seed: 9005,
			FracLoad: 0.12, FracStore: 0.05, FracBranch: 0.08,
			FracFP: 0.30, FracMul: 0.15,
			DepP: 0.30, FarDepFrac: 0.10,
			BiasedFrac: 0.70, LoopFrac: 0.20, RandTakenP: 0.5,
			WorkingSetKB: 24, BigRegionMB: 1, BigFrac: 0, StrideFrac: 0.4,
			BiasP: 0.99, NarrowFrac: 0.25, StaticBlocks: 48,
		},
	}
}

// kernels is Kernels built once for KernelByName.
var kernels = Kernels()

// KernelByName returns a kernel profile by name.
func KernelByName(name string) (Profile, bool) {
	return lookup(kernels, name)
}

// Lookup returns the benchmark profile with the given name or, failing
// that, the kernel profile: the names a run request accepts.
func Lookup(name string) (Profile, bool) {
	if p, ok := ByName(name); ok {
		return p, true
	}
	return KernelByName(name)
}
