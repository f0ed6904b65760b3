// Command hetwired serves the hetwire simulator over HTTP: a bounded
// worker pool executes run and batch jobs picked by a weighted-fair
// scheduler (per-tenant queues, an interactive lane for single runs),
// deterministic results are cached content-addressed, and /metrics exposes
// Prometheus gauges for the queue, pool, and cache.
//
//	hetwired -addr :8677 -workers 8 -cache-mb 128
//
// Submit work (raw HTTP, or the built-in fault-tolerant client mode):
//
//	curl -s localhost:8677/v1/run -d '{"benchmark":"gcc","model":"VII","n":100000}'
//	curl -s localhost:8677/v1/jobs -d '{"batch":{"sweep":{"models":["I","VII"],"benchmarks":["gzip","mcf"],"ns":[100000]}}}'
//	hetwired run -server http://localhost:8677 -bench gcc -model VII -n 100000
//
// The client mode submits idempotently (retried submits land on the same
// job), backs off exponentially honoring Retry-After on 429, and trips a
// circuit breaker when the daemon stays unreachable.
//
// SIGTERM or SIGINT drains gracefully: intake stops, queued jobs finish
// (up to -drain-timeout), then the process exits.
//
// Cluster mode distributes batch sweeps across machines: one daemon runs as
// the coordinator and any number of others join it as worker nodes, all
// sharing one secret:
//
//	hetwired -coordinator -cluster-token s3cret -addr :8677
//	hetwired -join http://coordinator:8677 -cluster-token s3cret
//
// The uncached scenarios of batch jobs submitted to the coordinator are
// sharded into work leases and executed by the nodes. Results are
// content-addressed and stored in the coordinator's result cache, which
// admission consults as on any daemon, so a repeated sweep is answered at
// submission and leases nothing. See internal/cluster for the protocol.
//
// Each process has one event stream, its flight recorder (-flight-events
// sizes it). A daemon serves it at /v1/debug/flight; -flight-log streams it
// to a file, and a node, which has no HTTP surface, streams to stderr
// without one. Only startup, drain and fatal messages go to stderr, and the
// "listening on" handshake to stdout.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"hetwire"
	"hetwire/internal/client"
	"hetwire/internal/cluster/node"
	"hetwire/internal/obs/flight"
	"hetwire/internal/server"
	"hetwire/internal/tenant"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "run" {
		runClient(os.Args[2:])
		return
	}
	serve(os.Args[1:])
}

func serve(args []string) {
	fs := flag.NewFlagSet("hetwired", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8677", "listen address (host:port; port 0 picks a free port)")
		workers    = fs.Int("workers", 4, "simulation worker-pool size")
		queueDepth = fs.Int("queue", 64, "job queue depth (submissions beyond it get 429 + Retry-After)")
		retryAfter = fs.Duration("retry-after", 0, "Retry-After hint on 429 before any job has completed (0 = server default)")
		cacheMB    = fs.Int64("cache-mb", 64, "result-cache budget in MiB")
		deadline   = fs.Duration("deadline", 2*time.Minute, "default per-job wall-clock deadline (0 keeps the server default)")
		maxDL      = fs.Duration("max-deadline", 10*time.Minute, "cap on per-request deadline overrides")
		drainT     = fs.Duration("drain-timeout", 30*time.Second, "how long to let jobs finish on SIGTERM")
		debugAddr  = fs.String("debug-addr", "", "optional introspection listener (host:port) serving /debug/pprof and /debug/vars; keep it off public interfaces")
		coord      = fs.Bool("coordinator", false, "run as a cluster coordinator: serve /v1/cluster and execute batch jobs on joined worker nodes")
		join       = fs.String("join", "", "join the coordinator at this base URL as a worker node instead of serving; requires -cluster-token")
		token      = fs.String("cluster-token", os.Getenv("HETWIRE_CLUSTER_TOKEN"), "shared cluster secret (default $HETWIRE_CLUSTER_TOKEN); required with -coordinator and -join")
		leaseSize  = fs.Int("lease-size", 0, "coordinator: scenarios per work lease; node: max scenarios to request per lease (0 = default)")
		leaseTTL   = fs.Duration("lease-ttl", 0, "work-lease deadline before re-dispatch (0 = coordinator default)")
		nodeName   = fs.String("node-name", "", "node label reported at registration (default: hostname)")
		tenantsF   = fs.String("tenants", "", "tenant config file (JSON) enabling keyed multi-tenancy with weighted-fair scheduling; empty = open mode")
		flightN    = fs.Int("flight-events", 0, "flight-recorder ring capacity in events (0 = default 4096)")
		flightDir  = fs.String("flight-dir", "", "directory for automatic flight dumps on worker panic or watchdog stall (empty = no auto-dump)")
		flightLog  = fs.String("flight-log", "", "stream every flight event to this JSONL file as it is recorded (default: none for a daemon, stderr for a node)")
	)
	fs.Parse(args)

	logger := log.New(os.Stderr, "hetwired ", log.LstdFlags|log.Lmicroseconds)
	fr := flight.New(*flightN)
	if *join != "" {
		joinCluster(logger, fr, *join, *token, *nodeName, *workers, *leaseSize, *flightLog)
		return
	}
	if f := streamFlight(logger, fr, *flightLog, nil, "hetwired"); f != nil {
		defer f.Close()
	}
	var tenantCfg *tenant.Config
	if *tenantsF != "" {
		raw, err := os.ReadFile(*tenantsF)
		if err != nil {
			logger.Fatalf("reading -tenants: %v", err)
		}
		tenantCfg, err = tenant.ParseConfig(raw)
		if err != nil {
			logger.Fatalf("parsing -tenants %s: %v", *tenantsF, err)
		}
		logger.Printf("multi-tenancy on: %d configured tenants (+anonymous)", len(tenantCfg.Tenants))
	}
	var clusterOpts *server.ClusterOptions
	if *coord {
		if *token == "" {
			logger.Fatalf("-coordinator requires a shared secret: set -cluster-token or $HETWIRE_CLUSTER_TOKEN (refusing to run an open coordinator)")
		}
		clusterOpts = &server.ClusterOptions{
			Token:     *token,
			LeaseSize: *leaseSize,
			LeaseTTL:  *leaseTTL,
		}
	}
	srv := server.New(server.Options{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		DefaultRetryAfter: *retryAfter,
		CacheBytes:        *cacheMB << 20,
		DefaultDeadline:   *deadline,
		MaxDeadline:       *maxDL,
		Cluster:           clusterOpts,
		Tenants:           tenantCfg,
		Flight:            fr,
		FlightDir:         *flightDir,
	})
	srv.Metrics().SetBuildInfo(buildVersion(), runtime.Version())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Fatalf("debug listen %s: %v", *debugAddr, err)
		}
		fmt.Printf("hetwired: debug listening on %s (/debug/pprof, /debug/vars)\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, debugMux()); err != nil {
				logger.Printf("debug listener: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	// The "listening on" line is the startup handshake: scripts (and the
	// integration tests) parse it to learn the bound port when -addr used
	// port 0.
	fmt.Printf("hetwired: listening on %s (workers=%d queue=%d cache=%dMiB)\n",
		ln.Addr(), *workers, *queueDepth, *cacheMB)
	if clusterOpts != nil {
		fmt.Println("hetwired: coordinator mode on (/v1/cluster served, batch jobs run on joined nodes)")
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Printf("received %v, draining (timeout %s)", sig, *drainT)
	case err := <-errCh:
		logger.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	cs := srv.Cache().Stats()
	logger.Printf("drained: cache served %d hits, %d coalesced, %d misses (ratio %.2f)",
		cs.Hits, cs.Coalesced, cs.Misses, cs.HitRatio())
	fmt.Println("hetwired: drained, exiting")
}

// streamFlight attaches the -flight-log sink to fr, labelled source: the
// file at path, or w when path is empty (nil streams nothing). It returns
// the file it opened, if any, for the caller to close.
func streamFlight(logger *log.Logger, fr *flight.Recorder, path string, w io.Writer, source string) *os.File {
	var f *os.File
	if path != "" {
		var err error
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			logger.Fatalf("opening -flight-log %s: %v", path, err)
		}
		w = f
	}
	if err := fr.SetSink(w, source); err != nil {
		logger.Fatalf("writing -flight-log header: %v", err)
	}
	return f
}

// joinCluster runs the process as a cluster worker node against the
// coordinator at base, until SIGTERM/SIGINT. A signal mid-lease abandons the
// lease without uploading; the coordinator's lease expiry re-dispatches it.
func joinCluster(logger *log.Logger, fr *flight.Recorder, base, token, name string, parallelism, maxLease int, flightLog string) {
	if token == "" {
		logger.Fatalf("-join requires the shared secret: set -cluster-token or $HETWIRE_CLUSTER_TOKEN")
	}
	if name == "" {
		if hn, err := os.Hostname(); err == nil {
			name = hn
		}
	}
	if f := streamFlight(logger, fr, flightLog, os.Stderr, name); f != nil {
		defer f.Close()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigCh
		logger.Printf("received %v, leaving the cluster", sig)
		cancel()
	}()

	fmt.Printf("hetwired: joining %s as %q (parallelism=%d)\n", base, name, parallelism)
	err := node.Run(ctx, node.Options{
		Coordinator: base,
		Token:       token,
		Name:        name,
		Parallelism: parallelism,
		MaxLease:    maxLease,
		Flight:      fr,
	})
	if err != nil && ctx.Err() == nil {
		logger.Fatalf("node: %v", err)
	}
	fmt.Println("hetwired: left the cluster, exiting")
}

// debugMux serves the runtime-introspection endpoints on a dedicated mux —
// deliberately separate from the API handler so profiling surface is only
// exposed where -debug-addr points (typically loopback).
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// buildVersion reports the module version stamped into the binary, or
// "devel" for plain `go build` / `go run` trees.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// runClient is the fault-tolerant client mode: submit one run idempotently,
// await the job through retries and backoff, and print the result JSON.
func runClient(args []string) {
	fs := flag.NewFlagSet("hetwired run", flag.ExitOnError)
	var (
		serverURL  = fs.String("server", "http://127.0.0.1:8677", "daemon base URL")
		bench      = fs.String("bench", "", "benchmark or kernel name")
		model      = fs.String("model", "", "interconnect model override (I..X)")
		n          = fs.Uint64("n", 0, "instruction budget (0 = server default)")
		clusters   = fs.Int("clusters", 0, "cluster count override (4 or 16)")
		deadlineMS = fs.Int64("deadline-ms", 0, "per-job wall-clock deadline override in ms")
		timeout    = fs.Duration("timeout", 5*time.Minute, "overall client timeout")
		attempts   = fs.Int("retries", 6, "max attempts per API operation")
		traceID    = fs.String("trace", "", "trace ID to stamp on every request (default: minted)")
		tenantKey  = fs.String("tenant-key", os.Getenv("HETWIRE_TENANT_KEY"), "tenant API key sent as X-Hetwire-Tenant (default $HETWIRE_TENANT_KEY)")
	)
	fs.Parse(args)
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "hetwired run: -bench is required")
		fs.Usage()
		os.Exit(2)
	}

	req := &hetwire.RunRequest{Benchmark: *bench, Model: *model, N: *n, Clusters: *clusters}
	if err := req.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "hetwired run: %v\n", err)
		os.Exit(2)
	}
	cl := client.New(client.Options{BaseURL: *serverURL, MaxAttempts: *attempts, TraceID: *traceID, TenantKey: *tenantKey})
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	resp, st, err := cl.Run(ctx, req, *deadlineMS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetwired run: trace=%s %v\n", cl.TraceID(), err)
		os.Exit(1)
	}
	out := struct {
		Job   string `json:"job"`
		Trace string `json:"trace"`
		*hetwire.RunResponse
		CacheHit bool          `json:"cache_hit"`
		WallMS   float64       `json:"wall_ms"`
		Spans    []server.Span `json:"spans,omitempty"`
	}{Job: st.ID, Trace: st.TraceID, RunResponse: resp, CacheHit: st.CacheHit, WallMS: st.WallMS, Spans: st.Spans}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
