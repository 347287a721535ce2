package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"

	"repro/tpdf"
)

// GraphSpec names the graph a request wants: a builtin by name (with
// optional constructor knobs in Params) or inline .tpdf source. Exactly
// one of Builtin/Source must be set.
type GraphSpec struct {
	Builtin string           `json:"builtin,omitempty"`
	Source  string           `json:"source,omitempty"`
	Params  map[string]int64 `json:"params,omitempty"`
}

// Resolve builds the graph the spec names.
func (gs GraphSpec) Resolve() (*tpdf.Graph, error) {
	switch {
	case gs.Builtin != "" && gs.Source != "":
		return nil, fmt.Errorf("serve: graph spec sets both builtin and source")
	case gs.Builtin != "":
		sc, err := tpdf.BuiltinScenario(gs.Builtin, gs.Params)
		if err != nil {
			return nil, err
		}
		return sc.Graph, nil
	case gs.Source != "":
		return tpdf.Parse(gs.Source)
	default:
		return nil, fmt.Errorf("serve: graph spec names neither builtin nor source")
	}
}

type openRequest struct {
	Tenant string           `json:"tenant,omitempty"`
	Graph  GraphSpec        `json:"graph"`
	Params map[string]int64 `json:"params,omitempty"`
	// Chaos requests seeded fault injection inside the session's engine;
	// honored only by servers started with -chaos.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
}

type openResponse struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Graph  string `json:"graph"`
}

type pumpRequest struct {
	Iterations int64            `json:"iterations"`
	Params     map[string]int64 `json:"params,omitempty"`
}

type pumpResponse struct {
	Completed  int64            `json:"completed"`
	SinkTokens map[string]int64 `json:"sink_tokens"`
}

type reconfigureRequest struct {
	Params map[string]int64 `json:"params"`
}

type closeResponse struct {
	Completed  int64            `json:"completed"`
	Firings    map[string]int64 `json:"firings,omitempty"`
	SinkTokens map[string]int64 `json:"sink_tokens,omitempty"`
}

type analyzeRequest struct {
	Graph GraphSpec `json:"graph"`
}

type analyzeResponse struct {
	Graph      string `json:"graph"`
	Consistent bool   `json:"consistent"`
	RateSafe   bool   `json:"rate_safe"`
	Live       bool   `json:"live"`
	Bounded    bool   `json:"bounded"`
	Repetition string `json:"repetition_vector,omitempty"`
	Bound      int64  `json:"buffer_bound,omitempty"`
	Report     string `json:"report"`
}

type sweepRequest struct {
	Graph      GraphSpec          `json:"graph"`
	Axes       map[string][]int64 `json:"axes"`
	Iterations int64              `json:"iterations,omitempty"`
}

type sweepPoint struct {
	Params      map[string]int64 `json:"params"`
	Time        int64            `json:"time"`
	TotalBuffer int64            `json:"total_buffer"`
}

type sweepResponse struct {
	Points []sweepPoint `json:"points"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Server is the HTTP face of the service tier.
type Server struct {
	m       *Manager
	mux     *http.ServeMux
	obs     *serveObs
	http    *http.Server
	ln      net.Listener
	admin   *http.Server
	adminLn net.Listener
}

// New builds a server around a fresh Manager with the given bounds.
func New(cfg Config) *Server {
	s := &Server{m: NewManager(cfg), mux: http.NewServeMux(), obs: newServeObs()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/sessions", s.handleOpen)
	s.mux.HandleFunc("POST /v1/sessions/{id}/pump", s.handlePump)
	s.mux.HandleFunc("POST /v1/sessions/{id}/reconfigure", s.handleReconfigure)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleClose)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	return s
}

// Manager exposes the fleet for in-process callers (the tests).
func (s *Server) Manager() *Manager { return s.m }

// Handler returns the instrumented HTTP handler (for tests and embedding):
// every request passes the latency/status middleware feeding /metrics.
func (s *Server) Handler() http.Handler { return s.obs.wrap(s.mux) }

// Start listens on addr (host:port, port 0 picks a free one) and serves in
// a background goroutine. The bound address is returned.
func (s *Server) Start(addr string) (string, error) {
	if s.m.storeErr != nil {
		return "", fmt.Errorf("serve: snapshot store: %w", s.m.storeErr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler()}
	go s.http.Serve(ln) //nolint:errcheck // Serve always returns on Close
	if s.m.store != nil {
		// Cold-start recovery runs behind the listener: /healthz answers
		// 503 "recovering" until the fleet is rebuilt, so load balancers
		// hold traffic without the boot blocking on disk.
		s.m.recovering.Store(true)
		go s.m.Recover(context.Background())
	}
	return ln.Addr().String(), nil
}

// Shutdown drains gracefully: new admissions are refused, every session
// parks and exits at its next transaction barrier (bounded by the
// manager's DrainTimeout, then cancelled), and finally the HTTP listener
// closes once in-flight requests finish.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.m.Drain(ctx)
	if s.http != nil {
		if herr := s.http.Shutdown(ctx); err == nil {
			err = herr
		}
	}
	if s.admin != nil {
		if aerr := s.admin.Shutdown(ctx); err == nil {
			err = aerr
		}
	}
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is fine
}

// writeErr maps the sentinel error taxonomy to HTTP statuses; everything
// unrecognized is a 400 (the request named something we refuse) rather
// than a 500 (the server broke).
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrBusy), errors.Is(err, ErrQuota):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotAdmissible):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrClosed):
		status = http.StatusConflict
	case errors.Is(err, ErrNotDurable):
		status = http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func decode[T any](r *http.Request, into *T) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// handleHealth answers 200 while serving and 503 "draining" once shutdown
// has begun, so load balancers stop routing new work here while in-flight
// sessions park and exit at their barriers.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.m.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.m.RecoveryActive() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Stats())
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req openRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, fmt.Errorf("serve: bad open request: %w", err))
		return
	}
	g, err := req.Graph.Resolve()
	if err != nil {
		writeErr(w, err)
		return
	}
	sess, err := s.m.Open(r.Context(), req.Tenant, g, req.Params, req.Chaos)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, openResponse{ID: sess.ID, Tenant: sess.Tenant, Graph: g.Name})
}

func (s *Server) handlePump(w http.ResponseWriter, r *http.Request) {
	sess, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req pumpRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, fmt.Errorf("serve: bad pump request: %w", err))
		return
	}
	completed, err := sess.Pump(r.Context(), req.Iterations, req.Params)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, pumpResponse{Completed: completed, SinkTokens: sess.SinkTokens()})
}

func (s *Server) handleReconfigure(w http.ResponseWriter, r *http.Request) {
	sess, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req reconfigureRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, fmt.Errorf("serve: bad reconfigure request: %w", err))
		return
	}
	if err := sess.Reconfigure(r.Context(), req.Params); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, pumpResponse{Completed: sess.Completed(), SinkTokens: sess.SinkTokens()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.m.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, pumpResponse{Completed: sess.Completed(), SinkTokens: sess.SinkTokens()})
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Session drains park at the next barrier, which is immediate for an
	// idle session; bound the wait regardless so a hung engine cannot pin
	// the handler.
	ctx, cancel := context.WithTimeout(r.Context(), s.m.cfg.DrainTimeout)
	defer cancel()
	sess, err := s.m.Get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	res, err := s.m.Close(ctx, id)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := closeResponse{Completed: sess.Completed(), SinkTokens: sess.SinkTokens()}
	if res != nil {
		resp.Firings = res.Firings
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, fmt.Errorf("serve: bad analyze request: %w", err))
		return
	}
	g, err := req.Graph.Resolve()
	if err != nil {
		writeErr(w, err)
		return
	}
	release, err := s.m.AcquireBatch(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	// The cache shares the analysis with session admission: one compile +
	// one report per distinct graph, whoever asks first.
	_, rep, err := s.m.Compile(g)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, analyzeResponse{
		Graph:      rep.GraphName,
		Consistent: rep.Consistent,
		RateSafe:   rep.RateSafe,
		Live:       rep.Live,
		Bounded:    rep.Bounded,
		Repetition: rep.RepetitionVector,
		Bound:      rep.BufferBound,
		Report:     rep.String(),
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, fmt.Errorf("serve: bad sweep request: %w", err))
		return
	}
	g, err := req.Graph.Resolve()
	if err != nil {
		writeErr(w, err)
		return
	}
	grid, err := tpdf.Grid(req.Axes)
	if err != nil {
		writeErr(w, err)
		return
	}
	release, err := s.m.AcquireBatch(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	opts := []tpdf.Option{
		tpdf.WithContext(r.Context()),
		tpdf.WithParallelism(s.m.cfg.SweepParallelism),
	}
	if req.Iterations > 0 {
		opts = append(opts, tpdf.WithIterations(req.Iterations))
	}
	points, err := tpdf.Sweep(g, grid, opts...)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := sweepResponse{Points: make([]sweepPoint, len(points))}
	for i, p := range points {
		resp.Points[i] = sweepPoint{Params: p.Params, Time: p.Time, TotalBuffer: p.TotalBuffer}
	}
	writeJSON(w, http.StatusOK, resp)
}
