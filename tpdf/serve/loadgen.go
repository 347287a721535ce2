package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/tpdf/obs"
)

// LoadConfig drives RunLoad against a running tpdf-serve instance.
type LoadConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Sessions is the total number of sessions to run (default 100).
	Sessions int
	// Concurrency is how many sessions are alive at once (default 32;
	// capped to Sessions).
	Concurrency int
	// Tenants spreads sessions round-robin over this many tenant names
	// (default 4).
	Tenants int
	// Pumps is the number of pump requests per session (default 8).
	Pumps int
	// Iterations is the number of graph iterations per pump (default 16).
	Iterations int64
	// Graph is the graph spec every session opens (default: builtin fig2).
	Graph GraphSpec
	// Timeout bounds each individual HTTP request (default 30s).
	Timeout time.Duration
	// Chaos, when non-nil, attaches a seeded fault schedule to every
	// session (session i gets Seed+i, so schedules differ but the whole
	// run replays from one seed). Requires a server started with -chaos.
	// Sessions must still all complete: injected panics are expected to
	// be recovered by the server's supervisor, not to fail the run.
	Chaos *ChaosSpec
	// ChaosParams are the parameter overrides chaos sessions cycle
	// through between pumps (giving injected rebind aborts a rebind to
	// reject). Default {"p": 2,3,4}, matching the default fig2 graph.
	ChaosParams map[string][]int64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Sessions <= 0 {
		c.Sessions = 100
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 32
	}
	if c.Concurrency > c.Sessions {
		c.Concurrency = c.Sessions
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Pumps <= 0 {
		c.Pumps = 8
	}
	if c.Iterations <= 0 {
		c.Iterations = 16
	}
	if c.Graph.Builtin == "" && c.Graph.Source == "" {
		c.Graph = GraphSpec{Builtin: "fig2"}
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Chaos != nil && len(c.ChaosParams) == 0 {
		c.ChaosParams = map[string][]int64{"p": {2, 3, 4}}
	}
	return c
}

// Percentiles summarizes one endpoint's request latencies.
type Percentiles struct {
	Count int     `json:"count"`
	P50   int64   `json:"p50_ns"`
	P95   int64   `json:"p95_ns"`
	P99   int64   `json:"p99_ns"`
	Max   int64   `json:"max_ns"`
	Mean  float64 `json:"mean_ns"`
}

func summarize(ns []int64) Percentiles {
	if len(ns) == 0 {
		return Percentiles{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(ns)-1))
		return ns[i]
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return Percentiles{
		Count: len(ns),
		P50:   at(0.50),
		P95:   at(0.95),
		P99:   at(0.99),
		Max:   ns[len(ns)-1],
		Mean:  float64(sum) / float64(len(ns)),
	}
}

// LoadReport is what a soak run measured: per-endpoint latency
// percentiles, throughput, and the failure/leak accounting the CI gate
// asserts on (both must be zero on a healthy server).
type LoadReport struct {
	Sessions        int   `json:"sessions"`
	Concurrency     int   `json:"concurrency"`
	Tenants         int   `json:"tenants"`
	TotalIterations int64 `json:"total_iterations"`
	// Failed counts sessions that hit any error on open, pump, or close.
	Failed int `json:"failed"`
	// Rejected counts 429/503 admission pushbacks (expected under
	// overload; they are backpressure, not failures, and are retried).
	Rejected int64 `json:"rejected"`
	// Leaked counts sessions still reported by /v1/stats after the run.
	Leaked int64 `json:"leaked"`
	// MetricsSeries is the number of sample lines the mid-run /metrics
	// scrape exposed; MetricsValid reports whether the exposition parsed
	// as Prometheus text (a parse failure fails the whole run).
	MetricsSeries int  `json:"metrics_series"`
	MetricsValid  bool `json:"metrics_valid"`
	// Fleet fault-tolerance counters from the final /v1/stats: in a
	// chaos run, Panics and Restarts prove injection and recovery both
	// happened (all sessions completed regardless).
	Panics       int64 `json:"panics"`
	Restarts     int64 `json:"restarts"`
	RebindAborts int64 `json:"rebind_aborts"`

	ElapsedMs      int64   `json:"elapsed_ms"`
	SessionsPerSec float64 `json:"sessions_per_sec"`

	Open  Percentiles `json:"open"`
	Pump  Percentiles `json:"pump"`
	Close Percentiles `json:"close"`
	// Session is the whole open→pumps→close lifecycle latency.
	Session Percentiles `json:"session"`
}

type loadClient struct {
	base string
	hc   *http.Client
}

type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("http %d: %s", e.status, e.body)
}

func (c *loadClient) do(ctx context.Context, method, path string, req, resp any) error {
	var body io.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if req != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	res, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, 1<<20))
	if err != nil {
		return err
	}
	if res.StatusCode >= 300 {
		return &httpError{status: res.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if resp != nil {
		return json.Unmarshal(data, resp)
	}
	return nil
}

// raw fetches a non-JSON endpoint (the Prometheus exposition) verbatim.
func (c *loadClient) raw(ctx context.Context, path string) (string, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", err
	}
	res, err := c.hc.Do(hr)
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, 8<<20))
	if err != nil {
		return "", err
	}
	if res.StatusCode >= 300 {
		return "", &httpError{status: res.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	return string(data), nil
}

// RunLoad soaks the server: Sessions session lifecycles at Concurrency in
// flight, each open → Pumps×pump → close, with admission pushback
// (429/503) retried after a short backoff. It returns the measured
// percentiles; it does not judge them (the caller / CI gate does).
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	cl := &loadClient{
		base: cfg.BaseURL,
		hc: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: cfg.Concurrency,
			},
		},
	}

	var (
		mu       sync.Mutex
		openNs   []int64
		pumpNs   []int64
		closeNs  []int64
		sessNs   []int64
		failed   int
		rejected atomic.Int64
		iters    atomic.Int64
	)
	record := func(dst *[]int64, d time.Duration) {
		mu.Lock()
		*dst = append(*dst, int64(d))
		mu.Unlock()
	}

	// timedDo retries admission pushback (the server saying "not now")
	// but fails fast on everything else; only the successful attempt's
	// latency is recorded.
	timedDo := func(dst *[]int64, method, path string, req, resp any) error {
		for {
			start := time.Now()
			err := cl.do(ctx, method, path, req, resp)
			if err == nil {
				record(dst, time.Since(start))
				return nil
			}
			var he *httpError
			if ok := asHTTPError(err, &he); ok &&
				(he.status == http.StatusTooManyRequests || he.status == http.StatusServiceUnavailable) {
				rejected.Add(1)
				select {
				case <-time.After(2 * time.Millisecond):
					continue
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return err
		}
	}

	// One mid-run /metrics scrape, taken while the scraping session is
	// still open so the exposition carries live per-session series; the
	// text is validated structurally and a parse failure fails the run.
	var (
		scrapeOnce    sync.Once
		metricsSeries int
		metricsValid  bool
		metricsErr    error
	)
	scrapeMetrics := func() {
		text, err := cl.raw(ctx, "/metrics")
		if err != nil {
			metricsErr = fmt.Errorf("scrape /metrics: %w", err)
			return
		}
		n, err := obs.ValidateExposition(text)
		if err != nil {
			metricsErr = fmt.Errorf("invalid /metrics exposition: %w", err)
			return
		}
		metricsSeries, metricsValid = n, true
	}

	runSession := func(i int) error {
		tenant := fmt.Sprintf("tenant-%d", i%cfg.Tenants)
		start := time.Now()
		open := openRequest{Tenant: tenant, Graph: cfg.Graph}
		if cfg.Chaos != nil {
			spec := *cfg.Chaos
			spec.Seed += int64(i)
			open.Chaos = &spec
		}
		var opened openResponse
		if err := timedDo(&openNs, http.MethodPost, "/v1/sessions", open, &opened); err != nil {
			return fmt.Errorf("open: %w", err)
		}
		scrapeOnce.Do(scrapeMetrics)
		for p := 0; p < cfg.Pumps; p++ {
			var pump pumpRequest
			pump.Iterations = cfg.Iterations
			if cfg.Chaos != nil && p > 0 {
				// Cycle parameters so injected rebind aborts have a
				// rebind to reject; survivors apply normally.
				pump.Params = map[string]int64{}
				for name, vals := range cfg.ChaosParams {
					pump.Params[name] = vals[p%len(vals)]
				}
			}
			var pr pumpResponse
			if err := timedDo(&pumpNs, http.MethodPost, "/v1/sessions/"+opened.ID+"/pump",
				pump, &pr); err != nil {
				return fmt.Errorf("pump: %w", err)
			}
		}
		var cr closeResponse
		if err := timedDo(&closeNs, http.MethodDelete, "/v1/sessions/"+opened.ID, nil, &cr); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		iters.Add(cr.Completed)
		record(&sessNs, time.Since(start))
		return nil
	}

	startAll := time.Now()
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Concurrency)
	var firstErr atomic.Value
	for i := 0; i < cfg.Sessions; i++ {
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := runSession(i); err != nil {
				mu.Lock()
				failed++
				mu.Unlock()
				firstErr.CompareAndSwap(nil, fmt.Errorf("session %d: %w", i, err))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(startAll)

	rep := &LoadReport{
		Sessions:        cfg.Sessions,
		Concurrency:     cfg.Concurrency,
		Tenants:         cfg.Tenants,
		TotalIterations: iters.Load(),
		Failed:          failed,
		Rejected:        rejected.Load(),
		ElapsedMs:       elapsed.Milliseconds(),
		SessionsPerSec:  float64(cfg.Sessions-failed) / elapsed.Seconds(),
		Open:            summarize(openNs),
		Pump:            summarize(pumpNs),
		Close:           summarize(closeNs),
		Session:         summarize(sessNs),
		MetricsSeries:   metricsSeries,
		MetricsValid:    metricsValid,
	}
	if metricsErr != nil {
		return rep, metricsErr
	}

	// Leak check: after every session closed, the server must report an
	// empty fleet.
	var st Stats
	if err := cl.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err == nil {
		rep.Leaked = int64(st.Sessions)
		rep.Panics = st.Panics
		rep.Restarts = st.Restarts
		rep.RebindAborts = st.RebindAborts
	}

	if err, ok := firstErr.Load().(error); ok && err != nil {
		return rep, err
	}
	return rep, nil
}

// asHTTPError unwraps err (possibly wrapped by url.Error) to an httpError.
func asHTTPError(err error, out **httpError) bool {
	for err != nil {
		if he, ok := err.(*httpError); ok {
			*out = he
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
