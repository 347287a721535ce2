package serve

import (
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/tpdf/obs"
)

// serveObs is the server's own observability state: per-endpoint latency
// histograms and response-code counters, fed by the middleware wrapping
// every handler. Session-level engine metrics live in each Session's
// private registry; /metrics stitches both together into one exposition.
type serveObs struct {
	mu      sync.Mutex
	latency map[string]*obs.Histogram
	codes   map[int]int64
}

func newServeObs() *serveObs {
	return &serveObs{
		latency: map[string]*obs.Histogram{},
		codes:   map[int]int64{},
	}
}

// statusRecorder captures the response status for the middleware. Handlers
// that never call WriteHeader implicitly answer 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// wrap instruments a mux: request latency lands in a per-route histogram
// (keyed by the matched ServeMux pattern, so path parameters do not explode
// the label space) and the response code in a counter. The 429 and 503
// series are the admission-control observables the load balancer and the
// loadgen watch.
func (o *serveObs) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)

		// The mux assigns r.Pattern on match; unmatched requests keep "".
		pattern := r.Pattern
		if pattern == "" {
			pattern = "unmatched"
		}
		o.mu.Lock()
		h := o.latency[pattern]
		if h == nil {
			h = obs.NewLatencyHistogram()
			o.latency[pattern] = h
		}
		o.codes[rec.status]++
		o.mu.Unlock()
		h.Observe(elapsed)
	})
}

// snapshot copies the middleware state for rendering (histogram pointers
// are shared; their buckets are atomic).
func (o *serveObs) snapshot() (routes []string, hists map[string]*obs.Histogram, codes map[int]int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	hists = make(map[string]*obs.Histogram, len(o.latency))
	codes = make(map[int]int64, len(o.codes))
	for p, h := range o.latency {
		routes = append(routes, p)
		hists[p] = h
	}
	for c, n := range o.codes {
		codes[c] = n
	}
	sort.Strings(routes)
	return routes, hists, codes
}

// handleMetrics renders the Prometheus text exposition: fleet-level
// admission and cache counters, per-endpoint latency histograms, and one
// series set per open session (barriers, rebinds, ring occupancy) drawn
// from each session's barrier-harvested registry. Everything is emitted in
// a deterministic order so consecutive scrapes diff cleanly.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	st := s.m.Stats()

	p.Family("tpdf_serve_sessions", "Open sessions.", "gauge")
	p.Int("tpdf_serve_sessions", []obs.Label{{Key: "state", Value: "open"}}, int64(st.Sessions))
	p.Family("tpdf_serve_sessions_total", "Session lifecycle outcomes.", "counter")
	p.Int("tpdf_serve_sessions_total", []obs.Label{{Key: "state", Value: "opened"}}, st.Opened)
	p.Int("tpdf_serve_sessions_total", []obs.Label{{Key: "state", Value: "drained"}}, st.Drained)
	p.Int("tpdf_serve_sessions_total", []obs.Label{{Key: "state", Value: "failed"}}, st.Failed)

	p.Family("tpdf_serve_tenants", "Tenants with at least one open session.", "gauge")
	p.Int("tpdf_serve_tenants", nil, int64(st.Tenants))
	p.Family("tpdf_serve_admission_queue_depth", "Openers waiting for a session slot.", "gauge")
	p.Int("tpdf_serve_admission_queue_depth", nil, st.QueueDepth)
	p.Family("tpdf_serve_draining", "1 while the server is draining (healthz answers 503).", "gauge")
	draining := int64(0)
	if st.Draining {
		draining = 1
	}
	p.Int("tpdf_serve_draining", nil, draining)
	p.Family("tpdf_serve_iterations_live", "Completed iterations summed over open sessions.", "gauge")
	p.Int("tpdf_serve_iterations_live", nil, st.IterationsLive)

	p.Family("tpdf_serve_fault_events_total", "Fleet fault-tolerance events: recovered behavior panics, supervisor engine restarts, rebind aborts.", "counter")
	p.Int("tpdf_serve_fault_events_total", []obs.Label{{Key: "event", Value: "panic"}}, st.Panics)
	p.Int("tpdf_serve_fault_events_total", []obs.Label{{Key: "event", Value: "restart"}}, st.Restarts)
	p.Int("tpdf_serve_fault_events_total", []obs.Label{{Key: "event", Value: "rebind_abort"}}, st.RebindAborts)

	p.Family("tpdf_serve_rejected_total", "Requests refused by admission control.", "counter")
	p.Int("tpdf_serve_rejected_total", []obs.Label{{Key: "reason", Value: "busy"}}, st.RejectedBusy)
	p.Int("tpdf_serve_rejected_total", []obs.Label{{Key: "reason", Value: "quota"}}, st.RejectedQuota)
	p.Int("tpdf_serve_rejected_total", []obs.Label{{Key: "reason", Value: "graph"}}, st.RejectedGraph)
	p.Int("tpdf_serve_rejected_total", []obs.Label{{Key: "reason", Value: "batch"}}, st.BatchRejected)
	p.Family("tpdf_serve_batch_jobs_total", "Admitted batch (analyze/sweep) jobs.", "counter")
	p.Int("tpdf_serve_batch_jobs_total", nil, st.BatchJobs)

	p.Family("tpdf_serve_program_cache_entries", "Distinct compiled graphs resident.", "gauge")
	p.Int("tpdf_serve_program_cache_entries", nil, int64(st.Cache.Entries))
	p.Family("tpdf_serve_program_cache_events_total", "Program cache traffic.", "counter")
	p.Int("tpdf_serve_program_cache_events_total", []obs.Label{{Key: "event", Value: "hit"}}, st.Cache.Hits)
	p.Int("tpdf_serve_program_cache_events_total", []obs.Label{{Key: "event", Value: "miss"}}, st.Cache.Misses)
	p.Int("tpdf_serve_program_cache_events_total", []obs.Label{{Key: "event", Value: "compile"}}, st.Cache.Compiles)
	p.Int("tpdf_serve_program_cache_events_total", []obs.Label{{Key: "event", Value: "rejection"}}, st.Cache.Rejected)

	if st.Durable != nil {
		d := st.Durable
		p.Family("tpdf_durable_events_total", "Durable snapshot lifecycle events.", "counter")
		p.Int("tpdf_durable_events_total", []obs.Label{{Key: "event", Value: "persist"}}, d.Snapshots)
		p.Int("tpdf_durable_events_total", []obs.Label{{Key: "event", Value: "persist_error"}}, d.PersistErrors)
		p.Int("tpdf_durable_events_total", []obs.Label{{Key: "event", Value: "torn_discarded"}}, d.TornDiscarded)
		p.Int("tpdf_durable_events_total", []obs.Label{{Key: "event", Value: "recovered"}}, d.Recovered)
		p.Int("tpdf_durable_events_total", []obs.Label{{Key: "event", Value: "recovery_failed"}}, d.RecoveryFailed)
		p.Int("tpdf_durable_events_total", []obs.Label{{Key: "event", Value: "deleted"}}, d.Deleted)
		p.Family("tpdf_durable_bytes_total", "Snapshot bytes written to the store.", "counter")
		p.Int("tpdf_durable_bytes_total", nil, d.Bytes)
		p.Family("tpdf_durable_snapshot_bytes", "Size of the most recently persisted snapshot.", "gauge")
		p.Int("tpdf_durable_snapshot_bytes", nil, d.LastSnapshotBytes)
		p.Family("tpdf_durable_persist_seconds", "Snapshot persist latency (encode + write + fsync).", "histogram")
		p.Histo("tpdf_durable_persist_seconds", nil, s.m.durable.persistLatency)
	}

	routes, hists, codes := s.obs.snapshot()
	p.Family("tpdf_serve_http_responses_total", "HTTP responses by status code.", "counter")
	statuses := make([]int, 0, len(codes))
	for c := range codes {
		statuses = append(statuses, c)
	}
	sort.Ints(statuses)
	for _, c := range statuses {
		p.Int("tpdf_serve_http_responses_total",
			[]obs.Label{{Key: "code", Value: strconv.Itoa(c)}}, codes[c])
	}
	p.Family("tpdf_serve_request_seconds", "Request latency by route pattern.", "histogram")
	for _, route := range routes {
		p.Histo("tpdf_serve_request_seconds", []obs.Label{{Key: "endpoint", Value: route}}, hists[route])
	}

	s.writeSessionMetrics(p)
	p.Flush() //nolint:errcheck // client gone is fine
}

// writeSessionMetrics emits the per-session engine series. Sessions are
// visited in ID order and each snapshot is a consistent barrier-harvested
// copy at most one transaction old.
func (s *Server) writeSessionMetrics(p *obs.PromWriter) {
	sessions := s.m.Sessions()
	type snap struct {
		sess *Session
		eng  obs.EngineSnapshot
	}
	snaps := make([]snap, 0, len(sessions))
	for _, sess := range sessions {
		snaps = append(snaps, snap{sess, sess.Metrics().EngineSnapshot()})
	}
	base := func(sess *Session) []obs.Label {
		return []obs.Label{
			{Key: "session", Value: sess.ID},
			{Key: "tenant", Value: sess.Tenant},
			{Key: "graph", Value: sess.Graph()},
		}
	}

	p.Family("tpdf_session_completed_iterations", "Transactions completed by the session.", "counter")
	for _, sn := range snaps {
		p.Int("tpdf_session_completed_iterations", base(sn.sess), sn.eng.Completed)
	}
	p.Family("tpdf_session_barriers_total", "Synchronisation barriers (epochs) the engine crossed.", "counter")
	for _, sn := range snaps {
		p.Int("tpdf_session_barriers_total", base(sn.sess), sn.eng.Barriers)
	}
	p.Family("tpdf_session_rebinds_total", "Parameter rebinds applied at barriers.", "counter")
	for _, sn := range snaps {
		p.Int("tpdf_session_rebinds_total", base(sn.sess), sn.eng.Rebinds)
	}
	p.Family("tpdf_session_rebind_rows_built_total", "Rebinds that had to bind and schedule their valuation instead of revisiting a scenario row.", "counter")
	for _, sn := range snaps {
		p.Int("tpdf_session_rebind_rows_built_total", base(sn.sess), sn.eng.RowsBuilt)
	}
	p.Family("tpdf_session_state", "Supervision state (1 for the session's current state).", "gauge")
	for _, sn := range snaps {
		p.Int("tpdf_session_state",
			append(base(sn.sess), obs.Label{Key: "state", Value: sn.sess.State().String()}), 1)
	}
	p.Family("tpdf_session_restarts_total", "Supervisor engine restarts after behavior panics.", "counter")
	for _, sn := range snaps {
		p.Int("tpdf_session_restarts_total", base(sn.sess), sn.sess.Restarts())
	}
	p.Family("tpdf_session_aborts_total", "Transactions discarded (behavior panics, rejected rebinds).", "counter")
	for _, sn := range snaps {
		p.Int("tpdf_session_aborts_total", base(sn.sess), sn.eng.Aborts)
	}
	p.Family("tpdf_session_restores_total", "Engine starts resumed from a checkpoint (supervisor restarts and cold-start recovery).", "counter")
	for _, sn := range snaps {
		p.Int("tpdf_session_restores_total", base(sn.sess), sn.eng.Restores)
	}
	p.Family("tpdf_session_actor_firings_total", "Firings per actor.", "counter")
	for _, sn := range snaps {
		for _, a := range sn.eng.Actors {
			p.Int("tpdf_session_actor_firings_total",
				append(base(sn.sess), obs.Label{Key: "actor", Value: a.Name}), a.Firings)
		}
	}
	p.Family("tpdf_session_ring_occupancy", "Tokens resident in the edge ring at the last barrier.", "gauge")
	for _, sn := range snaps {
		for _, e := range sn.eng.Edges {
			p.Int("tpdf_session_ring_occupancy",
				append(base(sn.sess), obs.Label{Key: "edge", Value: e.Name}), e.Occupancy)
		}
	}
	p.Family("tpdf_session_ring_high_water", "Peak ring occupancy observed.", "gauge")
	for _, sn := range snaps {
		for _, e := range sn.eng.Edges {
			p.Int("tpdf_session_ring_high_water",
				append(base(sn.sess), obs.Label{Key: "edge", Value: e.Name}), e.HighWater)
		}
	}
	p.Family("tpdf_session_ring_capacity", "Ring capacity in tokens.", "gauge")
	for _, sn := range snaps {
		for _, e := range sn.eng.Edges {
			p.Int("tpdf_session_ring_capacity",
				append(base(sn.sess), obs.Label{Key: "edge", Value: e.Name}), e.Capacity)
		}
	}
	p.Family("tpdf_session_ring_grows_total", "Ring capacity grow events at rebinds.", "counter")
	for _, sn := range snaps {
		for _, e := range sn.eng.Edges {
			p.Int("tpdf_session_ring_grows_total",
				append(base(sn.sess), obs.Label{Key: "edge", Value: e.Name}), e.Grows)
		}
	}
}

// handleTrace exports one session's transaction journal as Chrome
// trace_event JSON (load it in chrome://tracing or Perfetto).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sess, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	sess.TraceJournal().WriteChromeTrace(w) //nolint:errcheck // client gone is fine
}

// StartAdmin exposes the debug surface — net/http/pprof and a second copy
// of /metrics — on its own listener, kept off the public port so profiling
// endpoints are reachable only where the operator points them (a loopback
// or private address). Port 0 picks a free one; the bound address is
// returned.
func (s *Server) StartAdmin(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.adminLn = ln
	s.admin = &http.Server{Handler: mux}
	go s.admin.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), nil
}
