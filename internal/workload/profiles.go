package workload

// SPEC2K returns the 23 synthetic benchmark profiles standing in for the
// paper's SPEC2000 subset (all of SPEC2k except sixtrack, facerec and
// perlbmk, which were incompatible with the paper's infrastructure).
//
// Parameters are set from the well-known characteristics of each program
// (instruction mix, branchiness, memory-boundedness, fp share) and then
// calibrated so the 4-cluster Model-I baseline reproduces the rough IPC
// spread of paper Figure 3: memory-bound programs (mcf, art) at the bottom,
// regular codes (mesa, eon, galgel) at the top, and an arithmetic-mean IPC
// near 0.95.
func SPEC2K() []Profile {
	return []Profile{
		{
			Name: "ammp", Seed: 101,
			FracLoad: 0.26, FracStore: 0.09, FracBranch: 0.06,
			FracFP: 0.75, FracMul: 0.3,
			DepP: 0.55, FarDepFrac: 0.35,
			BiasedFrac: 0.55, LoopFrac: 0.4, RandTakenP: 0.5,
			WorkingSetKB: 40, BigRegionMB: 4, BigFrac: 0.05, StrideFrac: 0.4,
			BiasP:      0.985,
			NarrowFrac: 0.1, StaticBlocks: 384,
		},
		{
			Name: "applu", Seed: 102,
			FracLoad: 0.27, FracStore: 0.11, FracBranch: 0.03,
			FracFP: 0.85, FracMul: 0.35,
			DepP: 0.5, FarDepFrac: 0.38,
			BiasedFrac: 0.5, LoopFrac: 0.47, RandTakenP: 0.5,
			WorkingSetKB: 32, BigRegionMB: 2, BigFrac: 0.35, StrideFrac: 0.8,
			BiasP:      0.99,
			NarrowFrac: 0.08, StaticBlocks: 256,
		},
		{
			Name: "apsi", Seed: 103,
			FracLoad: 0.25, FracStore: 0.1, FracBranch: 0.05,
			FracFP: 0.75, FracMul: 0.3,
			DepP: 0.55, FarDepFrac: 0.35,
			BiasedFrac: 0.52, LoopFrac: 0.44, RandTakenP: 0.5,
			WorkingSetKB: 40, BigRegionMB: 2, BigFrac: 0.25, StrideFrac: 0.7,
			BiasP:      0.985,
			NarrowFrac: 0.1, StaticBlocks: 320,
		},
		{
			Name: "art", Seed: 104,
			FracLoad: 0.3, FracStore: 0.07, FracBranch: 0.1,
			FracFP: 0.7, FracMul: 0.25,
			DepP: 0.6, FarDepFrac: 0.32,
			BiasedFrac: 0.6, LoopFrac: 0.36, RandTakenP: 0.5,
			WorkingSetKB: 64, BigRegionMB: 2, BigFrac: 0.45, StrideFrac: 0.7,
			NarrowFrac: 0.12, StaticBlocks: 128,
		},
		{
			Name: "bzip2", Seed: 105,
			FracLoad: 0.26, FracStore: 0.1, FracBranch: 0.13,
			FracFP: 0.0, FracMul: 0.04,
			DepP: 0.7, FarDepFrac: 0.3,
			BiasedFrac: 0.75, LoopFrac: 0.17, RandTakenP: 0.45,
			WorkingSetKB: 32, BigRegionMB: 4, BigFrac: 0.04, StrideFrac: 0.5,
			BiasP:      0.98,
			NarrowFrac: 0.22, StaticBlocks: 256,
		},
		{
			Name: "crafty", Seed: 106,
			FracLoad: 0.28, FracStore: 0.08, FracBranch: 0.12,
			FracFP: 0.0, FracMul: 0.03,
			DepP: 0.7, FarDepFrac: 0.28,
			BiasedFrac: 0.8, LoopFrac: 0.12, RandTakenP: 0.42,
			WorkingSetKB: 24, BigRegionMB: 4, BigFrac: 0.01, StrideFrac: 0.3,
			BiasP:      0.985,
			NarrowFrac: 0.25, StaticBlocks: 1024,
		},
		{
			Name: "eon", Seed: 107,
			FracLoad: 0.26, FracStore: 0.13, FracBranch: 0.1,
			FracFP: 0.45, FracMul: 0.25,
			DepP: 0.6, FarDepFrac: 0.32,
			BiasedFrac: 0.8, LoopFrac: 0.16, RandTakenP: 0.5,
			WorkingSetKB: 24, BigRegionMB: 2, BigFrac: 0.004, StrideFrac: 0.4,
			BiasP:      0.985,
			NarrowFrac: 0.15, StaticBlocks: 640,
		},
		{
			Name: "equake", Seed: 108,
			FracLoad: 0.3, FracStore: 0.09, FracBranch: 0.07,
			FracFP: 0.7, FracMul: 0.35,
			DepP: 0.55, FarDepFrac: 0.32,
			BiasedFrac: 0.58, LoopFrac: 0.36, RandTakenP: 0.5,
			WorkingSetKB: 32, BigRegionMB: 4, BigFrac: 0.12, StrideFrac: 0.55,
			BiasP:      0.985,
			NarrowFrac: 0.1, StaticBlocks: 256,
		},
		{
			Name: "fma3d", Seed: 109,
			FracLoad: 0.26, FracStore: 0.12, FracBranch: 0.06,
			FracFP: 0.75, FracMul: 0.3,
			DepP: 0.55, FarDepFrac: 0.3,
			BiasedFrac: 0.58, LoopFrac: 0.37, RandTakenP: 0.5,
			WorkingSetKB: 32, BigRegionMB: 2, BigFrac: 0.1, StrideFrac: 0.6,
			BiasP:      0.985,
			NarrowFrac: 0.09, StaticBlocks: 768,
		},
		{
			Name: "galgel", Seed: 110,
			FracLoad: 0.28, FracStore: 0.08, FracBranch: 0.04,
			FracFP: 0.85, FracMul: 0.4,
			DepP: 0.45, FarDepFrac: 0.35,
			BiasedFrac: 0.5, LoopFrac: 0.47, RandTakenP: 0.5,
			WorkingSetKB: 32, BigRegionMB: 2, BigFrac: 0.08, StrideFrac: 0.8,
			BiasP:      0.99,
			NarrowFrac: 0.07, StaticBlocks: 192,
		},
		{
			Name: "gap", Seed: 111,
			FracLoad: 0.25, FracStore: 0.1, FracBranch: 0.12,
			FracFP: 0.0, FracMul: 0.06,
			DepP: 0.7, FarDepFrac: 0.3,
			BiasedFrac: 0.8, LoopFrac: 0.14, RandTakenP: 0.48,
			WorkingSetKB: 32, BigRegionMB: 4, BigFrac: 0.03, StrideFrac: 0.4,
			BiasP:      0.985,
			NarrowFrac: 0.24, StaticBlocks: 512,
		},
		{
			Name: "gcc", Seed: 112,
			FracLoad: 0.27, FracStore: 0.12, FracBranch: 0.16,
			FracFP: 0.0, FracMul: 0.02,
			DepP: 0.72, FarDepFrac: 0.28,
			BiasedFrac: 0.74, LoopFrac: 0.15, RandTakenP: 0.45,
			WorkingSetKB: 32, BigRegionMB: 4, BigFrac: 0.015, StrideFrac: 0.25,
			NarrowFrac: 0.28, StaticBlocks: 2048,
		},
		{
			Name: "gzip", Seed: 113,
			FracLoad: 0.22, FracStore: 0.08, FracBranch: 0.14,
			FracFP: 0.0, FracMul: 0.02,
			DepP: 0.7, FarDepFrac: 0.28,
			BiasedFrac: 0.72, LoopFrac: 0.18, RandTakenP: 0.4,
			WorkingSetKB: 32, BigRegionMB: 2, BigFrac: 0.02, StrideFrac: 0.55,
			BiasP:      0.98,
			NarrowFrac: 0.3, StaticBlocks: 192,
		},
		{
			Name: "lucas", Seed: 114,
			FracLoad: 0.24, FracStore: 0.11, FracBranch: 0.03,
			FracFP: 0.88, FracMul: 0.45,
			DepP: 0.5, FarDepFrac: 0.32,
			BiasedFrac: 0.5, LoopFrac: 0.47, RandTakenP: 0.5,
			WorkingSetKB: 32, BigRegionMB: 2, BigFrac: 0.3, StrideFrac: 0.85,
			BiasP:      0.99,
			NarrowFrac: 0.05, StaticBlocks: 160,
		},
		{
			Name: "mcf", Seed: 115,
			FracLoad: 0.31, FracStore: 0.09, FracBranch: 0.19,
			FracFP: 0.0, FracMul: 0.01,
			DepP: 0.72, FarDepFrac: 0.25,
			BiasedFrac: 0.78, LoopFrac: 0.12, RandTakenP: 0.45,
			WorkingSetKB: 48, BigRegionMB: 96, BigFrac: 0.3, StrideFrac: 0.08,
			NarrowFrac: 0.2, StaticBlocks: 192,
		},
		{
			Name: "mesa", Seed: 116,
			FracLoad: 0.24, FracStore: 0.12, FracBranch: 0.08,
			FracFP: 0.55, FracMul: 0.3,
			DepP: 0.6, FarDepFrac: 0.3,
			BiasedFrac: 0.78, LoopFrac: 0.18, RandTakenP: 0.5,
			WorkingSetKB: 28, BigRegionMB: 4, BigFrac: 0.004, StrideFrac: 0.6,
			BiasP:      0.99,
			NarrowFrac: 0.18, StaticBlocks: 512,
		},
		{
			Name: "mgrid", Seed: 117,
			FracLoad: 0.3, FracStore: 0.08, FracBranch: 0.02,
			FracFP: 0.88, FracMul: 0.38,
			DepP: 0.45, FarDepFrac: 0.35,
			BiasedFrac: 0.45, LoopFrac: 0.52, RandTakenP: 0.5,
			WorkingSetKB: 32, BigRegionMB: 2, BigFrac: 0.3, StrideFrac: 0.9,
			BiasP:      0.99,
			NarrowFrac: 0.05, StaticBlocks: 128,
		},
		{
			Name: "parser", Seed: 118,
			FracLoad: 0.25, FracStore: 0.09, FracBranch: 0.16,
			FracFP: 0.0, FracMul: 0.02,
			DepP: 0.72, FarDepFrac: 0.28,
			BiasedFrac: 0.76, LoopFrac: 0.14, RandTakenP: 0.45,
			WorkingSetKB: 32, BigRegionMB: 4, BigFrac: 0.03, StrideFrac: 0.2,
			NarrowFrac: 0.26, StaticBlocks: 768,
		},
		{
			Name: "swim", Seed: 119,
			FracLoad: 0.28, FracStore: 0.12, FracBranch: 0.02,
			FracFP: 0.9, FracMul: 0.35,
			DepP: 0.45, FarDepFrac: 0.35,
			BiasedFrac: 0.45, LoopFrac: 0.52, RandTakenP: 0.5,
			WorkingSetKB: 32, BigRegionMB: 2, BigFrac: 0.35, StrideFrac: 0.9,
			BiasP:      0.99,
			NarrowFrac: 0.04, StaticBlocks: 96,
		},
		{
			Name: "twolf", Seed: 120,
			FracLoad: 0.27, FracStore: 0.08, FracBranch: 0.15,
			FracFP: 0.05, FracMul: 0.04,
			DepP: 0.72, FarDepFrac: 0.26,
			BiasedFrac: 0.7, LoopFrac: 0.12, RandTakenP: 0.48,
			WorkingSetKB: 32, BigRegionMB: 4, BigFrac: 0.02, StrideFrac: 0.15,
			NarrowFrac: 0.22, StaticBlocks: 448,
		},
		{
			Name: "vortex", Seed: 121,
			FracLoad: 0.27, FracStore: 0.14, FracBranch: 0.13,
			FracFP: 0.0, FracMul: 0.02,
			DepP: 0.68, FarDepFrac: 0.3,
			BiasedFrac: 0.88, LoopFrac: 0.1, RandTakenP: 0.5,
			WorkingSetKB: 32, BigRegionMB: 4, BigFrac: 0.025, StrideFrac: 0.35,
			BiasP:      0.995,
			NarrowFrac: 0.24, StaticBlocks: 2048,
		},
		{
			Name: "vpr", Seed: 122,
			FracLoad: 0.27, FracStore: 0.09, FracBranch: 0.14,
			FracFP: 0.1, FracMul: 0.05,
			DepP: 0.72, FarDepFrac: 0.26,
			BiasedFrac: 0.72, LoopFrac: 0.16, RandTakenP: 0.47,
			WorkingSetKB: 32, BigRegionMB: 4, BigFrac: 0.02, StrideFrac: 0.18,
			NarrowFrac: 0.22, StaticBlocks: 384,
		},
		{
			Name: "wupwise", Seed: 123,
			FracLoad: 0.23, FracStore: 0.1, FracBranch: 0.05,
			FracFP: 0.8, FracMul: 0.4,
			DepP: 0.5, FarDepFrac: 0.35,
			BiasedFrac: 0.55, LoopFrac: 0.4, RandTakenP: 0.5,
			WorkingSetKB: 32, BigRegionMB: 2, BigFrac: 0.06, StrideFrac: 0.7,
			BiasP:      0.99,
			NarrowFrac: 0.06, StaticBlocks: 224,
		},
	}
}

// spec2k is SPEC2K built once for the lookups; request validation looks a
// program up on every request.
var spec2k = SPEC2K()

// ByName returns the profile with the given benchmark name.
func ByName(name string) (Profile, bool) {
	return lookup(spec2k, name)
}

// lookup finds a profile by name in a built table without copying the
// profiles it passes over.
func lookup(table []Profile, name string) (Profile, bool) {
	for i := range table {
		if table[i].Name == name {
			return table[i], true
		}
	}
	return Profile{}, false
}

// Names lists the benchmark names in the canonical (alphabetical) order the
// paper's Figure 3 uses.
func Names() []string {
	ps := SPEC2K()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
