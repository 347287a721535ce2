package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/tpdf/obs"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, res.StatusCode)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body)
}

// TestMetricsExposition drives a session through open+pump and requires the
// /metrics text to parse as Prometheus exposition and to carry the fleet
// families, the per-endpoint latency histogram of the pump route, and the
// per-session barrier and ring-occupancy series the acceptance criteria
// name.
func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, Config{})

	var opened openResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		openRequest{Tenant: "acme", Graph: GraphSpec{Builtin: "fig2"}}, &opened); code != http.StatusCreated {
		t.Fatalf("open status = %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+opened.ID+"/pump",
		pumpRequest{Iterations: 3}, nil); code != http.StatusOK {
		t.Fatalf("pump status = %d", code)
	}

	text := scrape(t, ts.URL+"/metrics")
	n, err := obs.ValidateExposition(text)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	if n < 30 {
		t.Errorf("suspiciously few samples: %d", n)
	}

	for _, want := range []string{
		`tpdf_serve_sessions{state="open"} 1`,
		`tpdf_serve_sessions_total{state="opened"} 1`,
		`tpdf_serve_admission_queue_depth 0`,
		`tpdf_serve_draining 0`,
		`tpdf_serve_program_cache_events_total{event="compile"} 1`,
		`tpdf_serve_http_responses_total{code="200"}`,
		`tpdf_serve_request_seconds_bucket{endpoint="POST /v1/sessions/{id}/pump",le="+Inf"} 1`,
		`tpdf_session_completed_iterations{session="` + opened.ID + `",tenant="acme",graph="fig2"} 3`,
		`tpdf_session_barriers_total{session="` + opened.ID + `"`,
		`tpdf_session_ring_occupancy{session="` + opened.ID + `"`,
		`tpdf_session_ring_high_water{session="` + opened.ID + `"`,
		`tpdf_session_actor_firings_total{session="` + opened.ID + `"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The pump route histogram must have observed exactly the one pump.
	if strings.Count(text, `endpoint="POST /v1/sessions/{id}/pump"`) == 0 {
		t.Error("no pump-route latency series")
	}
}

// TestMetricsSessionSeriesTrackPump checks the barrier-harvest freshness
// contract at the HTTP surface: after another pump the session's completed
// and barrier series advance.
func TestMetricsSessionSeriesTrackPump(t *testing.T) {
	_, ts := testServer(t, Config{})

	var opened openResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		openRequest{Graph: GraphSpec{Builtin: "fig2"}}, &opened)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+opened.ID+"/pump", pumpRequest{Iterations: 2}, nil)
	before := scrape(t, ts.URL+"/metrics")
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+opened.ID+"/pump", pumpRequest{Iterations: 5}, nil)
	after := scrape(t, ts.URL+"/metrics")

	key := `tpdf_session_completed_iterations{session="` + opened.ID + `"`
	if !strings.Contains(before, key+`,tenant="default",graph="fig2"} 2`) {
		t.Errorf("first scrape should report 2 completed iterations:\n%s", grepLines(before, key))
	}
	if !strings.Contains(after, key+`,tenant="default",graph="fig2"} 7`) {
		t.Errorf("second scrape should report 7 completed iterations:\n%s", grepLines(after, key))
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

// TestHealthzDraining is the load-balancer contract: /healthz flips to 503
// "draining" once the manager begins draining, so no new work is routed to
// a server that is parking its sessions.
func TestHealthzDraining(t *testing.T) {
	s, ts := testServer(t, Config{})

	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", res.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Manager().Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	res, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", res.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatalf("decode healthz body: %v", err)
	}
	if body["status"] != "draining" {
		t.Fatalf("healthz body = %v, want status=draining", body)
	}
}

// TestCacheRejectedCounter fills a one-entry program cache and requires the
// refusal to surface both as a 429 and as the Rejected counter in /v1/stats.
func TestCacheRejectedCounter(t *testing.T) {
	_, ts := testServer(t, Config{MaxPrograms: 1})

	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		openRequest{Graph: GraphSpec{Builtin: "fig2"}}, nil); code != http.StatusCreated {
		t.Fatalf("first open status = %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		openRequest{Graph: GraphSpec{Builtin: "fig4a"}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("second graph status = %d, want 422 (cache full wraps ErrBusy under admission)", code)
	}

	var st Stats
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Cache.Rejected != 1 {
		t.Errorf("cache rejected = %d, want 1 (stats %+v)", st.Cache.Rejected, st.Cache)
	}
	if st.Cache.Hits != 0 || st.Cache.Misses != 1 || st.Cache.Compiles != 1 {
		t.Errorf("cache counters off: %+v", st.Cache)
	}

	text := scrape(t, ts.URL+"/metrics")
	if !strings.Contains(text, `tpdf_serve_program_cache_events_total{event="rejection"} 1`) {
		t.Errorf("rejection not exposed:\n%s", grepLines(text, "program_cache"))
	}
}

// TestAdminListener checks that the opt-in admin surface serves pprof and a
// second /metrics copy on its own port, kept off the public listener.
func TestAdminListener(t *testing.T) {
	s, ts := testServer(t, Config{})

	// The public mux must NOT serve pprof.
	res, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("public pprof probe: %v", err)
	}
	res.Body.Close()
	if res.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable on the public listener")
	}

	addr, err := s.StartAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start admin: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.admin.Shutdown(ctx) //nolint:errcheck // test cleanup
	})

	body := scrape(t, "http://"+addr+"/debug/pprof/cmdline")
	if body == "" {
		t.Error("pprof cmdline empty")
	}
	text := scrape(t, "http://"+addr+"/metrics")
	if _, err := obs.ValidateExposition(text); err != nil {
		t.Errorf("admin /metrics invalid: %v", err)
	}
}

// TestSessionTraceEndpoint exports a pumped session's records as Chrome
// trace JSON and checks it parses and names the barrier spans.
func TestSessionTraceEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})

	var opened openResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		openRequest{Graph: GraphSpec{Builtin: "fig2"}}, &opened)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+opened.ID+"/pump", pumpRequest{Iterations: 2}, nil)

	raw := scrape(t, ts.URL+"/v1/sessions/"+opened.ID+"/trace")
	// Chrome trace JSON array form: every element is one trace event.
	var events []map[string]any
	if err := json.Unmarshal([]byte(raw), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
	names := map[string]bool{}
	for _, ev := range events {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	if !names["run_start"] || !names["barrier"] {
		t.Errorf("trace missing run_start/barrier events: %v", names)
	}
}

// sessionSeries parses one scrape into series -> value for the given
// session, keyed by the full series name including labels.
func sessionSeries(t *testing.T, text, id string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, ln := range strings.Split(text, "\n") {
		if !strings.HasPrefix(ln, "tpdf_session_") || !strings.Contains(ln, `{session="`+id+`"`) {
			continue
		}
		sp := strings.LastIndexByte(ln, ' ')
		v, err := strconv.ParseFloat(ln[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", ln, err)
		}
		out[ln[:sp]] = v
	}
	return out
}

// TestMetricsSurviveSupervisorRestart scrapes a chaos session after every
// pumped iteration, across the supervisor restart its injected panic
// forces: the engine counters are the session's, not one engine
// incarnation's, so aborts, barriers and per-actor firings never go
// backwards, and every restart shows up as one restore.
func TestMetricsSurviveSupervisorRestart(t *testing.T) {
	_, ts := testServer(t, Config{EnableChaos: true})

	var opened openResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", openRequest{
		Graph: GraphSpec{Builtin: "fig2"},
		Chaos: &ChaosSpec{Seed: 7, Panics: 1, Horizon: 16},
	}, &opened); code != http.StatusCreated {
		t.Fatalf("open status = %d", code)
	}
	sum := func(m map[string]float64, family string) (v float64) {
		for k, x := range m {
			if strings.HasPrefix(k, family+"{") {
				v += x
			}
		}
		return v
	}

	var prev map[string]float64
	firingsBeforeRestart := 0.0
	for i := 0; i < 20; i++ {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+opened.ID+"/pump",
			pumpRequest{Iterations: 1}, nil); code != http.StatusOK {
			t.Fatalf("pump %d status = %d", i, code)
		}
		cur := sessionSeries(t, scrape(t, ts.URL+"/metrics"), opened.ID)
		for k, was := range prev {
			for _, family := range []string{"tpdf_session_aborts_total", "tpdf_session_barriers_total",
				"tpdf_session_actor_firings_total", "tpdf_session_restores_total", "tpdf_session_completed_iterations"} {
				if strings.HasPrefix(k, family+"{") && cur[k] < was {
					t.Errorf("after pump %d: %s went backwards, %v -> %v", i, k, was, cur[k])
				}
			}
		}
		if sum(cur, "tpdf_session_restarts_total") == 0 {
			firingsBeforeRestart = sum(cur, "tpdf_session_actor_firings_total")
		}
		prev = cur
	}
	restarts := sum(prev, "tpdf_session_restarts_total")
	if restarts != 1 {
		t.Fatalf("restarts_total = %v, want 1 (the injected panic)", restarts)
	}
	if firingsBeforeRestart == 0 {
		t.Fatal("the panic hit before any scrape saw firings; pick a later fault site")
	}
	if got := sum(prev, "tpdf_session_restores_total"); got != restarts {
		t.Errorf("restores_total = %v, restarts_total = %v, want equal", got, restarts)
	}
	if got := sum(prev, "tpdf_session_aborts_total"); got != 1 {
		t.Errorf("aborts_total = %v, want 1", got)
	}
}
