package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetwire/internal/client"
	"hetwire/internal/cluster/node"
	"hetwire/internal/server"
	"hetwire/internal/wire"
)

// daemonWorkers is the daemon's worker-pool size (hetwired's default).
const daemonWorkers = 4

// daemon is an in-process hetwired on a loopback listener, optionally with
// one in-process cluster node agent joined to it.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	// token is the cluster secret (coordinator mode only).
	token string

	serveDone  chan error
	nodeCancel context.CancelFunc
	nodeDone   chan error
}

func startDaemon(opts server.Options) (*daemon, error) {
	opts.Workers = daemonWorkers
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:       server.New(opts),
		base:      "http://" + ln.Addr().String(),
		serveDone: make(chan error, 1),
	}
	if opts.Cluster != nil {
		d.token = opts.Cluster.Token
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.serveDone <- d.hs.Serve(ln) }()
	return d, nil
}

// joinNode starts a node agent against the daemon and waits until the
// coordinator lists it.
func (d *daemon) joinNode(ctx context.Context) error {
	nctx, cancel := context.WithCancel(context.Background())
	d.nodeCancel = cancel
	d.nodeDone = make(chan error, 1)
	go func() {
		d.nodeDone <- node.Run(nctx, node.Options{Coordinator: d.base, Token: d.token, Name: "bench-node"})
	}()
	admin := client.New(client.Options{BaseURL: d.base, AuthToken: d.token})
	for {
		var nodes struct {
			Nodes []json.RawMessage `json:"nodes"`
		}
		if err := admin.DoJSON(ctx, http.MethodGet, "/v1/cluster/nodes", nil, "", &nodes); err != nil {
			return fmt.Errorf("listing cluster nodes: %w", err)
		}
		if len(nodes.Nodes) > 0 {
			return nil
		}
		select {
		case err := <-d.nodeDone:
			return fmt.Errorf("node agent exited before registering: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop drains the daemon and waits for the node agent and the HTTP server
// goroutines to exit.
func (d *daemon) stop() error {
	var errs []error
	if d.nodeCancel != nil {
		d.nodeCancel()
		if err := <-d.nodeDone; err != nil && !errors.Is(err, context.Canceled) {
			errs = append(errs, fmt.Errorf("node agent: %w", err))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("daemon drain: %w", err))
	}
	if err := d.hs.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
	}
	if err := <-d.serveDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// transportCounts tallies what one client transport sent and received. The
// client's retries happen below its public API, so attempts counted here
// minus calls made by the harness is the retry count.
type transportCounts struct {
	attempts  atomic.Int64
	polls     atomic.Int64 // GET /v1/jobs/{id}
	binResps  atomic.Int64
	binBytes  atomic.Int64
	jsonResps atomic.Int64
	jsonBytes atomic.Int64
}

type countingTransport struct {
	base http.RoundTripper
	c    *transportCounts
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.c.attempts.Add(1)
	if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/") &&
		!strings.HasSuffix(req.URL.Path, "/stream") {
		t.c.polls.Add(1)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/run" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	bytes := &t.c.jsonBytes
	if strings.HasPrefix(resp.Header.Get("Content-Type"), wire.ContentType) {
		t.c.binResps.Add(1)
		bytes = &t.c.binBytes
	} else {
		t.c.jsonResps.Add(1)
	}
	resp.Body = countingBody{ReadCloser: resp.Body, n: bytes}
	return resp, err
}

// countingBody adds the bytes read from a response body to n.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// newClient builds a hetwire client whose transport is capped at conns
// connections and counted into counts.
func newClient(base, tenantKey string, conns int, counts *transportCounts) (*client.Client, *http.Transport) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	cl := client.New(client.Options{
		BaseURL:    base,
		TenantKey:  tenantKey,
		HTTPClient: &http.Client{Transport: countingTransport{base: tr, c: counts}},
	})
	return cl, tr
}

// --- counter readouts ---

// promSample parses a Prometheus text exposition into "name{labels}" ->
// value.
func promSample(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// promSum adds every series of the metric name whose labels contain all
// the given label fragments.
func promSum(m map[string]float64, name string, labels ...string) float64 {
	var s float64
	for k, v := range m {
		base, lab, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
				break
			}
		}
		if ok {
			s += v
		}
	}
	return s
}

// promHistDeltaQuantile estimates the q-quantile of a histogram's
// observations between two scrapes, summed over series matching labels,
// returning the upper bound of the bucket the quantile falls in.
func promHistDeltaQuantile(before, after map[string]float64, name string, q float64, labels ...string) float64 {
	byLE := map[float64]float64{}
	for k, v := range after {
		base, lab, _ := strings.Cut(k, "{")
		if base != name+"_bucket" {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		i := strings.Index(lab, `le="`)
		if i < 0 {
			continue
		}
		leStr := lab[i+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			continue // +Inf
		}
		byLE[le] += v - before[k]
	}
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return 0
	}
	total := byLE[les[len(les)-1]]
	if total <= 0 {
		return 0
	}
	for _, le := range les {
		if byLE[le] >= q*total {
			return le
		}
	}
	return les[len(les)-1]
}

// tenantUsage is the part of a /v1/tenants/usage entry the benchmark reads
// (the daemon encodes tenant.Snapshot without JSON tags).
type tenantUsage struct {
	Name   string
	SimCPU time.Duration
}

func tenantsUsage(ctx context.Context, cl *client.Client) (map[string]tenantUsage, error) {
	var body struct {
		Tenants []tenantUsage `json:"tenants"`
	}
	if err := cl.DoJSON(ctx, http.MethodGet, "/v1/tenants/usage", nil, "", &body); err != nil {
		return nil, fmt.Errorf("reading tenant usage: %w", err)
	}
	out := make(map[string]tenantUsage, len(body.Tenants))
	for _, t := range body.Tenants {
		out[t.Name] = t
	}
	return out, nil
}

// clusterCounters is the part of the coordinator's counters the benchmark
// reads from /v1/cluster/nodes.
type clusterCounters struct {
	LeasesIssued          uint64
	LeasesExpired         uint64
	ScenariosRedispatched uint64
	UploadsAccepted       uint64
	FederatedHits         uint64
}

func clusterStats(ctx context.Context, d *daemon) (clusterCounters, error) {
	admin := client.New(client.Options{BaseURL: d.base, AuthToken: d.token})
	var body struct {
		Stats clusterCounters `json:"stats"`
	}
	err := admin.DoJSON(ctx, http.MethodGet, "/v1/cluster/nodes", nil, "", &body)
	return body.Stats, err
}

// flightSeq returns the sequence number of the newest event in the
// daemon's flight recorder (0 when empty).
func flightSeq(ctx context.Context, base string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/debug/flight", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("reading flight recorder: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var last uint64
	for _, line := range bytes.Split(raw, []byte("\n")) {
		var ev struct {
			Seq uint64 `json:"seq"`
		}
		if json.Unmarshal(line, &ev) == nil && ev.Seq > last {
			last = ev.Seq
		}
	}
	return last, nil
}

// expvarInt reads an integer-valued expvar, or a named field of a map one.
func expvarInt(name, field string) float64 {
	v := expvar.Get(name)
	if v == nil {
		return 0
	}
	var out any
	if json.Unmarshal([]byte(v.String()), &out) != nil {
		return 0
	}
	if field != "" {
		m, ok := out.(map[string]any)
		if !ok {
			return 0
		}
		out = m[field]
	}
	f, _ := out.(float64)
	return f
}

// sampler polls fn every period until stopped, keeping the maximum.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	max  float64
}

func startSampler(period time.Duration, fn func() float64) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			v := fn()
			s.mu.Lock()
			if v > s.max {
				s.max = v
			}
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}
