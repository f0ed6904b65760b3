package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path"
	"strconv"
	"strings"
)

// CPU attribution. A runtime/pprof profile taken over the traced window is
// symbolised by `go tool pprof -raw`; every sample's stack is then charged
// to exactly one layer of the map below.
//
// Attribution walks the stack from the leaf outwards and charges the first
// frame whose package owns a layer. Generic packages (the runtime, sync,
// sort, bytes, crypto, ...) own none, so their time lands on the layer that
// called them: a memclr under core's Reset is core's, a mallocgc under the
// JSON encoder is the encoder's. Stacks inside the garbage collector go to
// cpu.runtime.gc; runtime stacks with no owning frame (scheduler, netpoll)
// to cpu.runtime.other; anything else to cpu.other.

// cpuLayers lists every cpu.* metric in print order.
var cpuLayers = []string{
	"cpu.sched.calendar", "cpu.sched.wheel",
	"cpu.core.steer", "cpu.core.lsq", "cpu.core.pipeline", "cpu.core.reset", "cpu.core.other",
	"cpu.noc", "cpu.cache", "cpu.bpred", "cpu.narrow", "cpu.workload", "cpu.batch",
	"cpu.runtime.gc", "cpu.runtime.other",
	"cpu.server", "cpu.tenant", "cpu.wire", "cpu.stdlib.http", "cpu.stdlib.json",
	"cpu.client", "cpu.cluster", "cpu.obs", "cpu.harness", "cpu.other",
}

// layerCmd labels packages that are never linked into the benchmark
// process (command-line tools and examples); samples cannot land there.
const layerCmd = "cmd"

// modulePackageLayers maps each hetwire package to its layer. Packages whose
// layer depends on the file (core, sched, server) are resolved further in
// frameLayer.
var modulePackageLayers = map[string]string{
	"hetwire":                       "cpu.batch",
	"hetwire/internal/batch":        "cpu.batch",
	"hetwire/internal/bpred":        "cpu.bpred",
	"hetwire/internal/cache":        "cpu.cache",
	"hetwire/internal/client":       "cpu.client",
	"hetwire/internal/cluster":      "cpu.cluster",
	"hetwire/internal/cluster/node": "cpu.cluster",
	"hetwire/internal/config":       "cpu.core.other",
	"hetwire/internal/core":         "cpu.core.pipeline",
	"hetwire/internal/energy":       "cpu.core.other",
	"hetwire/internal/faultinject":  "cpu.server",
	"hetwire/internal/narrow":       "cpu.narrow",
	"hetwire/internal/noc":          "cpu.noc",
	"hetwire/internal/obs":          "cpu.obs",
	"hetwire/internal/obs/flight":   "cpu.obs",
	"hetwire/internal/sched":        "cpu.sched.calendar",
	"hetwire/internal/server":       "cpu.server",
	"hetwire/internal/stats":        "cpu.core.other",
	"hetwire/internal/tenant":       "cpu.tenant",
	"hetwire/internal/trace":        "cpu.workload",
	"hetwire/internal/wire":         "cpu.wire",
	"hetwire/internal/wires":        "cpu.noc",
	"hetwire/internal/workload":     "cpu.workload",
	"hetwire/internal/xrand":        "cpu.workload",
}

// stdlibLayers maps standard-library packages that own a layer; all other
// standard-library packages are transparent.
var stdlibLayers = map[string]string{
	"net":               "cpu.stdlib.http",
	"net/http":          "cpu.stdlib.http",
	"net/textproto":     "cpu.stdlib.http",
	"net/url":           "cpu.stdlib.http",
	"bufio":             "cpu.stdlib.http",
	"mime":              "cpu.stdlib.http",
	"vendor/golang.org": "cpu.stdlib.http",
	"encoding/json":     "cpu.stdlib.json",
}

// packageLayer returns the layer owning an import path, "" when the package
// is transparent.
func packageLayer(pkg string) string {
	if l, ok := modulePackageLayers[pkg]; ok {
		return l
	}
	if strings.HasPrefix(pkg, "hetwire/cmd/") || strings.HasPrefix(pkg, "hetwire/examples/") {
		return layerCmd
	}
	if pkg == "main" || strings.HasPrefix(pkg, "hetwire/perfbench") {
		return "cpu.harness"
	}
	for p, l := range stdlibLayers {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return l
		}
	}
	return ""
}

// frameLayer resolves one stack frame to its layer ("" = transparent).
func frameLayer(fn, file string) string {
	pkg := funcPackage(fn)
	l := packageLayer(pkg)
	base := path.Base(file)
	switch pkg {
	case "hetwire/internal/sched":
		if base == "wheel.go" {
			return "cpu.sched.wheel"
		}
	case "hetwire/internal/core":
		name := fn[len(pkg)+1:]
		switch {
		case base == "scratch.go" || strings.Contains(name, "Reset") || strings.Contains(name, "reset") || name == "New":
			return "cpu.core.reset"
		case base == "steer.go":
			return "cpu.core.steer"
		case base == "lsq.go":
			return "cpu.core.lsq"
		}
	case "hetwire/internal/server":
		if base == "sched.go" || base == "tenancy.go" {
			return "cpu.tenant"
		}
	}
	return l
}

// funcPackage extracts the import path from a symbolised Go function name
// such as "hetwire/internal/core.(*Processor).step" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// gcFuncs mark a stack as garbage-collector work wherever they appear.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.sweepone", "runtime.(*sweepLocked).sweep", "runtime.deductSweepCredit",
	"runtime.(*mheap).reclaim", "runtime.scanobject", "runtime.wbBufFlush",
}

type frame struct{ fn, file string }

// attribute charges one stack (leaf first) to a layer.
func attribute(stack []frame) string {
	for _, f := range stack {
		for _, g := range gcFuncs {
			if f.fn == g {
				return "cpu.runtime.gc"
			}
		}
	}
	for _, f := range stack {
		if l := frameLayer(f.fn, f.file); l != "" && l != layerCmd {
			return l
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0].fn, "runtime.") {
		return "cpu.runtime.other"
	}
	return "cpu.other"
}

// profileShares runs `go tool pprof -raw` on a CPU profile and returns the
// sample count per layer plus the total.
func profileShares(profilePath string) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-raw", profilePath).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, ee.Stderr)
		}
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseRaw(out)
}

// parseRaw reads pprof's -raw text: a Samples section of
// "count value: loc loc ..." lines and a Locations section of
// "id: addr M=n func file:line:col s=n" lines, where continuation lines
// (no id) are the inlined callers of the line above them.
func parseRaw(raw []byte) (map[string]float64, float64, error) {
	type sample struct {
		count float64
		locs  []int
	}
	var samples []sample
	locs := map[int][]frame{}
	section := ""
	lastLoc := -1
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		trim := strings.TrimSpace(line)
		switch trim {
		case "Samples:", "Locations", "Mappings":
			section = trim
			continue
		}
		switch section {
		case "Samples:":
			head, ids, ok := strings.Cut(trim, ":")
			if !ok {
				continue
			}
			fields := strings.Fields(head)
			if len(fields) == 0 {
				continue
			}
			c, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				continue // the column-header line
			}
			s := sample{count: c}
			for _, f := range strings.Fields(ids) {
				id, err := strconv.Atoi(f)
				if err != nil {
					break // labels follow the location list
				}
				s.locs = append(s.locs, id)
			}
			samples = append(samples, s)
		case "Locations":
			fields := strings.Fields(trim)
			if len(fields) == 0 {
				continue
			}
			var fr frame
			if strings.HasSuffix(fields[0], ":") { // "id: addr M=n func file..."
				id, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":"))
				if err != nil {
					continue
				}
				lastLoc = id
				if len(fields) >= 4 {
					fr = frame{fn: fields[3]}
					if len(fields) >= 5 {
						fr.file = fields[4]
					}
				}
			} else if lastLoc >= 0 { // inlined caller of the previous line
				fr = frame{fn: fields[0]}
				if len(fields) >= 2 {
					fr.file = fields[1]
				}
			}
			if fr.fn != "" {
				if i := strings.IndexByte(fr.file, ':'); i >= 0 {
					fr.file = fr.file[:i]
				}
				locs[lastLoc] = append(locs[lastLoc], fr)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(samples) == 0 {
		return nil, 0, fmt.Errorf("pprof -raw: no samples")
	}
	shares := make(map[string]float64)
	var total float64
	for _, s := range samples {
		var stack []frame
		for _, id := range s.locs {
			stack = append(stack, locs[id]...)
		}
		shares[attribute(stack)] += s.count
		total += s.count
	}
	return shares, total, nil
}

// writeFile writes data under dir, creating it.
func writeFile(dir, name string, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := path.Join(dir, name)
	return p, os.WriteFile(p, data, 0o644)
}
