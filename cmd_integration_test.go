package hetwire_test

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runCmd executes one of the repository's commands via `go run` and returns
// its combined output.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestCLIWirecalc: the wire calculator prints the Table 2 derivation.
func TestCLIWirecalc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out := runCmd(t, "./cmd/wirecalc")
	for _, want := range []string{"PW-Wire", "L-Wire", "Transmission-line", "Technology scaling"} {
		if !strings.Contains(out, want) {
			t.Errorf("wirecalc output missing %q", want)
		}
	}
}

// TestCLITraceRoundTrip: tracegen writes a trace, inspects it, and hwsim
// replays it.
func TestCLITraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	path := dir + "/t.hwt"
	out := runCmd(t, "./cmd/tracegen", "-bench", "gzip", "-n", "30000", "-o", path)
	if !strings.Contains(out, "wrote 30000 instructions") {
		t.Fatalf("tracegen output: %s", out)
	}
	out = runCmd(t, "./cmd/tracegen", "-inspect", path)
	if !strings.Contains(out, "30000 instructions") || !strings.Contains(out, "branch") {
		t.Fatalf("inspect output: %s", out)
	}
	out = runCmd(t, "./cmd/hwsim", "-tracefile", path, "-model", "VII", "-n", "30000")
	if !strings.Contains(out, "IPC") || !strings.Contains(out, "Model-VII") {
		t.Fatalf("hwsim replay output: %s", out)
	}
}

// TestCLIHwsimJSON: the JSON output is well-formed enough to contain the
// key fields.
func TestCLIHwsimJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out := runCmd(t, "./cmd/hwsim", "-bench", "mesa", "-n", "20000", "-json")
	for _, want := range []string{`"Benchmark": "mesa"`, `"IPC":`, `"Cycles":`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s:\n%s", want, out[:200])
		}
	}
}

// TestCLIExperimentsFig3: the experiment driver runs end to end at a tiny
// scale and prints the AM row.
func TestCLIExperimentsFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out := runCmd(t, "./cmd/experiments", "-fig3", "-n", "5000")
	if !strings.Contains(out, "AM speedup") {
		t.Fatalf("experiments output missing summary:\n%s", out)
	}
}

// TestCLIPipeview: the pipeline viewer renders a timeline.
func TestCLIPipeview(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out := runCmd(t, "./cmd/pipeview", "-bench", "gzip", "-skip", "2000", "-count", "8")
	if !strings.Contains(out, "timeline") || !strings.Contains(out, "F") {
		t.Fatalf("pipeview output:\n%s", out)
	}
}

// TestCLIHetwiretrace: record writes a parseable trace; summary, diff, and
// timeline render it. Two recordings of the same scenario are byte-identical
// (deterministic traces), so their diff reports no movement.
func TestCLIHetwiretrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	a, b := dir+"/a.trace", dir+"/b.trace"
	runCmd(t, "./cmd/hetwiretrace", "record", "-benchmark", "gcc", "-model", "V", "-n", "40000", "-o", a)
	runCmd(t, "./cmd/hetwiretrace", "record", "-benchmark", "gcc", "-model", "V", "-n", "40000", "-o", b)
	rawA, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Error("two recordings of the same scenario differ; traces must be deterministic")
	}
	if !strings.HasPrefix(string(rawA), `{"schema":"hetwire-trace/v1"`) {
		t.Errorf("trace does not lead with the versioned header: %.80s", rawA)
	}

	out := runCmd(t, "./cmd/hetwiretrace", "summary", a)
	for _, want := range []string{"benchmark=gcc", "class", "W", "PW", "B", "L", "utilization", "ipc="} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	out = runCmd(t, "./cmd/hetwiretrace", "diff", a, b)
	if !strings.Contains(out, "no differing metrics") {
		t.Errorf("diff of identical traces reported movement:\n%s", out)
	}

	// A different model must move metrics.
	c := dir + "/c.trace"
	runCmd(t, "./cmd/hetwiretrace", "record", "-benchmark", "gcc", "-model", "I", "-n", "40000", "-o", c)
	out = runCmd(t, "./cmd/hetwiretrace", "diff", "-top", "5", a, c)
	if !strings.Contains(out, "metric") || !strings.Contains(out, "%") {
		t.Errorf("diff output malformed:\n%s", out)
	}

	out = runCmd(t, "./cmd/hetwiretrace", "timeline", "-width", "32", a)
	if !strings.Contains(out, "utilization timeline") || !strings.Contains(out, "B   |") {
		t.Errorf("timeline output malformed:\n%s", out)
	}
}

// TestCLIHetwiredServes: the daemon starts on a random port, serves a run,
// serves the identical request again from the result cache with a
// byte-identical body, exposes the hit on /metrics, and drains cleanly on
// SIGTERM.
func TestCLIHetwiredServes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	bin := dir + "/hetwired"
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/hetwired").CombinedOutput(); err != nil {
		t.Fatalf("building hetwired: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2",
		"-debug-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
			<-done
		}
	}()

	// Startup prints the debug listener's address first, then the API's.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatal("no startup line from hetwired")
	}
	debugLine := sc.Text()
	if !sc.Scan() {
		t.Fatal("no API startup line from hetwired")
	}
	line := sc.Text()
	var rest string
	go func() {
		for sc.Scan() {
			rest += sc.Text() + "\n"
		}
		done <- cmd.Wait()
	}()
	const debugMarker = "debug listening on "
	i := strings.Index(debugLine, debugMarker)
	if i < 0 {
		t.Fatalf("debug startup line %q missing %q", debugLine, debugMarker)
	}
	debugBase := "http://" + strings.Fields(debugLine[i+len(debugMarker):])[0]
	const marker = "listening on "
	i = strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("startup line %q missing %q", line, marker)
	}
	addr := strings.Fields(line[i+len(marker):])[0]
	base := "http://" + addr

	post := func() (string, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/run", "application/json",
			strings.NewReader(`{"benchmark":"gzip","model":"VII","n":20000}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/run: %d %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Hetwired-Cache"), body
	}
	cache1, body1 := post()
	cache2, body2 := post()
	if cache1 != "miss" || cache2 != "hit" {
		t.Errorf("cache headers = %q then %q, want miss then hit", cache1, cache2)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("second response body differs from the first")
	}
	if !strings.Contains(string(body1), `"ipc"`) {
		t.Errorf("response missing ipc: %s", body1)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "hetwired_cache_hits_total 1") {
		t.Errorf("metrics missing the cache hit:\n%.400s", metrics)
	}
	if !strings.Contains(string(metrics), "hetwired_build_info{version=") {
		t.Errorf("metrics missing hetwired_build_info:\n%.400s", metrics)
	}
	if !strings.Contains(string(metrics), `hetwired_worker_busy_seconds_total{worker="0"}`) {
		t.Errorf("metrics missing per-worker busy counters:\n%.400s", metrics)
	}

	// Requests echo their trace ID; daemon mints one when the client sends none.
	traceReq, _ := http.NewRequest("GET", base+"/healthz", nil)
	traceReq.Header.Set("X-Hetwire-Trace", "cli-itest-1")
	traceResp, err := http.DefaultClient.Do(traceReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, traceResp.Body)
	traceResp.Body.Close()
	if got := traceResp.Header.Get("X-Hetwire-Trace"); got != "cli-itest-1" {
		t.Errorf("trace header echo = %q, want cli-itest-1", got)
	}

	// The debug listener serves expvar and pprof on its own port.
	dresp, err := http.Get(debugBase + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	dvars, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || !strings.Contains(string(dvars), `"memstats"`) {
		t.Errorf("GET /debug/vars: %d, body missing memstats:\n%.200s", dresp.StatusCode, dvars)
	}
	presp, err := http.Get(debugBase + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline: %d", presp.StatusCode)
	}
	// The API mux must NOT expose pprof.
	aresp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, aresp.Body)
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusNotFound {
		t.Errorf("API mux served /debug/pprof/cmdline with %d, want 404", aresp.StatusCode)
	}

	// SIGTERM must drain gracefully, not abort.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		exited = true
		if err != nil {
			t.Errorf("hetwired exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hetwired did not exit after SIGTERM")
	}
	if !strings.Contains(rest, "drained, exiting") {
		t.Errorf("missing drain farewell in output:\n%s", rest)
	}
}
