// Command hetwiretrace records and inspects wire-class telemetry traces
// (hetwire-trace/v1 JSONL, see internal/obs).
//
//	hetwiretrace record -benchmark gcc -model V -n 100000 -o gcc.trace
//	hetwiretrace summary gcc.trace           # per-class utilization table
//	hetwiretrace summary -json gcc.trace     # machine-readable summary
//	hetwiretrace diff a.trace b.trace        # metric-by-metric comparison
//	hetwiretrace timeline -width 80 gcc.trace
//	hetwiretrace cluster coordinator.flight node-a.flight node-b.flight
//
// record runs the simulation in-process (no daemon needed) with the probe
// attached; the other verbs work on any trace file, including ones captured
// by a probed hetwired worker. Traces are deterministic, so diffing two
// recordings of the same scenario shows exactly the metrics a config change
// moved.
//
// Traces and flight dumps are JSONL only. cluster merges flight-recorder
// dumps (from GET /v1/debug/flight or a node's -flight-log, which also
// carries the node's per-lease outcome events) into one causal timeline per
// trace ID. Ordering is sequence numbers and lease-grant anchoring, never
// wall clock, so merging the dumps of two identical runs yields
// byte-identical timelines.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hetwire"
	"hetwire/internal/obs"
	"hetwire/internal/obs/flight"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "summary":
		err = cmdSummary(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "timeline":
		err = cmdTimeline(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "hetwiretrace: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetwiretrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  hetwiretrace record  -benchmark B [-model M] [-clusters C] [-n N] [-o FILE]
  hetwiretrace summary [-json] FILE
  hetwiretrace diff    [-json] [-top K] FILE_A FILE_B
  hetwiretrace timeline [-width W] FILE
  hetwiretrace cluster [-durations] DUMP...   # flight dumps -> causal timeline
`)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		benchmark = fs.String("benchmark", "", "benchmark or kernel name (required)")
		model     = fs.String("model", "", "interconnect model I..X (default: config baseline)")
		clusters  = fs.Int("clusters", 0, "cluster count override (4 or 16)")
		n         = fs.Uint64("n", 100_000, "instruction budget")
		out       = fs.String("o", "-", "trace output file ('-' for stdout)")
	)
	fs.Parse(args)
	if *benchmark == "" {
		return fmt.Errorf("record: -benchmark is required")
	}
	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	req := &hetwire.RunRequest{Benchmark: *benchmark, Model: *model, Clusters: *clusters, N: *n}
	resp, err := req.ExecuteProbed(context.Background(), w)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %s model=%s clusters=%d n=%d ipc=%.4f\n",
		resp.Benchmark, resp.Model, resp.Clusters, resp.N, resp.IPC)
	return nil
}

// readTraceFile loads a JSONL trace.
func readTraceFile(path string) (obs.Header, []obs.Sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return obs.Header{}, nil, err
	}
	defer f.Close()
	return obs.ReadTrace(bufio.NewReader(f))
}

func summarizeFile(path string) (obs.Summary, error) {
	hdr, samples, err := readTraceFile(path)
	if err != nil {
		return obs.Summary{}, err
	}
	return obs.Summarize(hdr, samples)
}

func cmdSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the summary as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("summary: need exactly one trace file")
	}
	sum, err := summarizeFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	fmt.Print(obs.FormatSummary(sum))
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit diff rows as JSON")
	top := fs.Int("top", 0, "show only the K largest movers (0 = all, schema order)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: need exactly two trace files")
	}
	a, err := summarizeFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := summarizeFile(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := obs.DiffSummaries(a, b)
	if *top > 0 {
		obs.SortRowsByMagnitude(rows)
		if len(rows) > *top {
			rows = rows[:*top]
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	fmt.Print(obs.FormatDiff(rows))
	return nil
}

// readClusterFile loads one JSONL flight dump, labelled by its header's
// source (the process that recorded it), or by file name when it has none.
func readClusterFile(path string) (flight.Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return flight.Source{}, err
	}
	defer f.Close()
	hdr, events, err := flight.ReadDump(f)
	if err != nil {
		return flight.Source{}, fmt.Errorf("%s: %w", path, err)
	}
	return flight.Source{Name: sourceName(hdr, path), Events: events}, nil
}

func sourceName(hdr flight.Header, path string) string {
	if hdr.Source != "" {
		return hdr.Source
	}
	return filepath.Base(path)
}

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	durations := fs.Bool("durations", false, "include measured vtime/duration fields (nondeterministic; off for diffable output)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("cluster: need at least one flight dump")
	}
	sources := make([]flight.Source, 0, fs.NArg())
	for _, path := range fs.Args() {
		src, err := readClusterFile(path)
		if err != nil {
			return err
		}
		sources = append(sources, src)
	}
	fmt.Print(flight.MergeTimeline(sources, *durations))
	return nil
}

func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	width := fs.Int("width", 64, "timeline width in buckets")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("timeline: need exactly one trace file")
	}
	hdr, samples, err := readTraceFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Print(obs.Timeline(hdr, samples, *width))
	return nil
}
