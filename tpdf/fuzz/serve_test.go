package fuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/tpdf"
	"repro/tpdf/serve"
)

// serveClient is a minimal JSON client for the serve HTTP surface — the
// harness drives sessions through real HTTP requests, not the Manager
// API, so the admission, codec and handler layers are inside the
// differential.
type serveClient struct {
	t    *testing.T
	base string
}

func (c *serveClient) post(path string, req, resp any) error {
	c.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		c.t.Fatalf("marshal %T: %v", req, err)
	}
	httpResp, err := http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode < 200 || httpResp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(httpResp.Body).Decode(&e)
		return fmt.Errorf("%s: HTTP %d: %s", path, httpResp.StatusCode, e.Error)
	}
	return json.NewDecoder(httpResp.Body).Decode(resp)
}

type openResp struct {
	ID string `json:"id"`
}

type pumpResp struct {
	Completed  int64            `json:"completed"`
	SinkTokens map[string]int64 `json:"sink_tokens"`
}

func (c *serveClient) open(graphSrc string, params map[string]int64) (string, error) {
	var resp openResp
	err := c.post("/v1/sessions", map[string]any{
		"tenant": "fuzz",
		"graph":  map[string]any{"source": graphSrc},
		"params": params,
	}, &resp)
	return resp.ID, err
}

func (c *serveClient) pump(id string, iters int64, params map[string]int64) (pumpResp, error) {
	var resp pumpResp
	err := c.post("/v1/sessions/"+id+"/pump", map[string]any{
		"iterations": iters,
		"params":     params,
	}, &resp)
	return resp, err
}

// pumpParams aligns the schedule's rebinds to its pump cadence: the
// parameter set attached to pump i is the rebind scheduled exactly at
// that pump's start boundary (the only boundary HTTP can hit). Both the
// reference and the crash-recovered run apply the same sets, so their
// trajectories match whatever the alignment drops.
func pumpParams(s *Schedule) []map[string]int64 {
	out := make([]map[string]int64, len(s.Pumps))
	cum := int64(0)
	for i := range s.Pumps {
		for _, rb := range s.Rebinds {
			if rb.At == cum {
				out[i] = rb.Params
			}
		}
		cum += s.Pumps[i]
	}
	return out
}

// TestServeDifferentialCrashRecovery pushes generated cases through the
// full service stack over real HTTP: admit the generated graph from its
// text, pump it on the schedule's cadence, kill the server at the
// schedule's crash point (no drain — exactly what SIGKILL leaves), boot
// a second server on the same data directory, recover, and finish the
// cadence. Completed count and sink tokens must match an uninterrupted
// reference session pumped through its own server.
func TestServeDifferentialCrashRecovery(t *testing.T) {
	seeds := []int64{1, 3, 7, 10, 11, 13, 15, 25, 28, 39}
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			c := NewCase(seed)
			s := c.Schedule
			if s.CrashAfterPump < 0 {
				t.Skipf("seed %d schedules no crash point", seed)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			graphSrc := tpdf.Format(c.Graph)
			params := pumpParams(s)

			// Uninterrupted reference: its own server, full cadence.
			refSrv := serve.New(serve.Config{})
			refHTTP := httptest.NewServer(refSrv.Handler())
			defer refHTTP.Close()
			ref := &serveClient{t: t, base: refHTTP.URL}
			refID, err := ref.open(graphSrc, s.Base)
			if err != nil {
				t.Fatalf("reference open: %v", err)
			}
			var want pumpResp
			for i, n := range s.Pumps {
				if want, err = ref.pump(refID, n, params[i]); err != nil {
					t.Fatalf("reference pump %d: %v", i, err)
				}
			}
			if err := refSrv.Manager().Drain(ctx); err != nil {
				t.Fatalf("reference drain: %v", err)
			}

			// Run under test: durable server, crash after the scheduled
			// pump, recover on a second server over the same directory.
			dataDir := t.TempDir()
			cfg := serve.Config{DataDir: dataDir, DrainTimeout: 10 * time.Second}
			srv1 := serve.New(cfg)
			h1 := httptest.NewServer(srv1.Handler())
			cl := &serveClient{t: t, base: h1.URL}
			id, err := cl.open(graphSrc, s.Base)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for i := 0; i <= s.CrashAfterPump; i++ {
				if _, err := cl.pump(id, s.Pumps[i], params[i]); err != nil {
					t.Fatalf("pump %d before crash: %v", i, err)
				}
			}
			// Crash: stop serving and walk away from the manager — no
			// drain, no flush beyond what each pump ack already forced.
			h1.Close()

			srv2 := serve.New(cfg)
			rec := srv2.Manager().Recover(ctx)
			if rec.Recovered != 1 || rec.Failed != 0 {
				t.Fatalf("recovery stats: %+v", rec)
			}
			h2 := httptest.NewServer(srv2.Handler())
			defer h2.Close()
			cl2 := &serveClient{t: t, base: h2.URL}

			var got pumpResp
			for i := s.CrashAfterPump + 1; i < len(s.Pumps); i++ {
				if got, err = cl2.pump(id, s.Pumps[i], params[i]); err != nil {
					t.Fatalf("pump %d after recovery: %v", i, err)
				}
			}
			if got.Completed != want.Completed {
				t.Errorf("completed: recovered %d, reference %d", got.Completed, want.Completed)
			}
			if !reflect.DeepEqual(got.SinkTokens, want.SinkTokens) {
				t.Errorf("sink tokens: recovered %v, reference %v", got.SinkTokens, want.SinkTokens)
			}
			if err := srv2.Manager().Drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
		})
	}
}

// TestServeAdmitsGeneratedGraphs sweeps generated graphs through HTTP
// admission alone: every valid-by-construction graph must be admitted
// (they are all Theorem 2-bounded) and pump one iteration.
func TestServeAdmitsGeneratedGraphs(t *testing.T) {
	srv := serve.New(serve.Config{})
	h := httptest.NewServer(srv.Handler())
	defer h.Close()
	cl := &serveClient{t: t, base: h.URL}

	n := int64(40)
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= n; seed++ {
		c := NewCase(seed)
		id, err := cl.open(tpdf.Format(c.Graph), c.Schedule.Base)
		if err != nil {
			t.Fatalf("seed %d: admission refused a valid generated graph: %v", seed, err)
		}
		if resp, err := cl.pump(id, 1, nil); err != nil || resp.Completed != 1 {
			t.Fatalf("seed %d: pump: completed=%d err=%v", seed, resp.Completed, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Manager().Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
