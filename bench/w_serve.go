package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/tpdf"
	"repro/tpdf/fuzz"
	"repro/tpdf/serve"
)

const (
	pumpIters = 8
	// fleetRounds is how many seeded permutations of the fleet the visiting
	// order holds before it repeats.
	fleetRounds = 64
)

// fleetBuiltins are the light built-in graphs a fleet runs two sessions
// of each. ofdm and vc1 are left out on purpose: an ofdm pump costs
// milliseconds and would make the latency distribution bimodal.
var fleetBuiltins = [4]string{"avc-me", "fig2", "edge", "fmradio"}

// fleetGenSeeds are the generator seeds of the eight generated graphs a
// fleet opens by source text. They are constants, not derived from -seed:
// the seed permutes which slot a graph lands in and the visiting order,
// while the work a fleet does stays the same on every seed, so that runs
// with different seeds can be compared (the driver measures spread across
// seeds).
var fleetGenSeeds = [8]int64{2, 3, 7, 9, 14, 15, 22, 26}

// sessionSpec is one session of the fleet: its open request and the sink
// totals a tpdf.Execute run of its graph reaches every pumpIters
// iterations.
type sessionSpec struct {
	graph    string
	openBody []byte
	perPump  map[string]int64
}

// sinkNames lists the nodes without outgoing edges, the rule tpdf/serve
// uses to pick the nodes whose consumption it reports.
func sinkNames(g *tpdf.Graph) []string {
	hasOut := make([]bool, len(g.Nodes))
	for _, e := range g.Edges {
		hasOut[e.Src] = true
	}
	var names []string
	for i, n := range g.Nodes {
		if !hasOut[i] {
			names = append(names, n.Name)
		}
	}
	return names
}

// sinkReference runs g through tpdf.Execute with counting sinks and
// returns the per-sink totals after iters iterations.
func sinkReference(g *tpdf.Graph, iters int64) (map[string]int64, error) {
	names := sinkNames(g)
	counts := make([]int64, len(names))
	behaviors := map[string]tpdf.Behavior{}
	for i, name := range names {
		behaviors[name] = countingSink(&counts[i])
	}
	if _, err := tpdf.Execute(g, behaviors, tpdf.WithIterations(iters)); err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(names))
	for i, name := range names {
		out[name] = counts[i]
	}
	return out, nil
}

func newSessionSpec(g *tpdf.Graph, open map[string]any) (sessionSpec, error) {
	body, err := json.Marshal(map[string]any{"graph": open})
	if err != nil {
		return sessionSpec{}, err
	}
	one, err := sinkReference(g, pumpIters)
	if err != nil {
		return sessionSpec{}, fmt.Errorf("%s: reference run: %w", g.Name, err)
	}
	// Acks are checked as pumps × perPump, which holds only if the graph
	// returns to its initial state every iteration; confirm on two pumps.
	two, err := sinkReference(g, 2*pumpIters)
	if err != nil {
		return sessionSpec{}, fmt.Errorf("%s: reference run: %w", g.Name, err)
	}
	for name, n := range one {
		if two[name] != 2*n {
			return sessionSpec{}, fmt.Errorf("%s: sink %s is not periodic: %d then %d tokens", g.Name, name, n, two[name])
		}
	}
	return sessionSpec{graph: g.Name, openBody: body, perPump: one}, nil
}

// fleetPlan is the seeded part of a serve workload: which graph each
// session slot runs and the order sessions are visited in.
type fleetPlan struct {
	sessions []sessionSpec
	order    []int
}

func newFleetPlan(seed int64) (*fleetPlan, error) {
	var specs []sessionSpec
	for _, name := range fleetBuiltins {
		g, err := tpdf.Builtin(name)
		if err != nil {
			return nil, err
		}
		s, err := newSessionSpec(g, map[string]any{"builtin": name})
		if err != nil {
			return nil, err
		}
		specs = append(specs, s, s)
	}
	for _, gs := range fleetGenSeeds {
		g := fuzz.Graph(gs, fuzz.GraphConfig{})
		s, err := newSessionSpec(g, map[string]any{"source": tpdf.Format(g)})
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	rng := rand.New(rand.NewSource(seed))
	fp := &fleetPlan{sessions: make([]sessionSpec, len(specs))}
	for slot, from := range rng.Perm(len(specs)) {
		fp.sessions[slot] = specs[from]
	}
	for r := 0; r < fleetRounds; r++ {
		fp.order = append(fp.order, rng.Perm(len(specs))...)
	}
	return fp, nil
}

func (fp *fleetPlan) opKey(n int) string {
	slot := fp.order[n%len(fp.order)]
	return fmt.Sprintf("pump slot %d graph %s x%d", slot, fp.sessions[slot].graph, pumpIters)
}

// respWriter is a reusable in-memory http.ResponseWriter: requests go
// through Server.Handler().ServeHTTP, every rung the program owns and no
// socket.
type respWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{hdr: http.Header{}, status: http.StatusOK} }

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) WriteHeader(status int)      { w.status = status }
func (w *respWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *respWriter) reset() {
	clear(w.hdr)
	w.status = http.StatusOK
	w.body.Reset()
}

// reqBody is a rewindable request body.
type reqBody struct{ bytes.Reader }

func (*reqBody) Close() error { return nil }

// client is one closed-loop caller: it owns a response buffer and one
// prebuilt pump request per session it visits, so the per-op cost on the
// benchmark's side is a body rewind.
type client struct {
	h     http.Handler
	rw    *respWriter
	pumps []*http.Request
	body  []*reqBody
}

var pumpBody = []byte(fmt.Sprintf(`{"iterations":%d}`, pumpIters))

// newClient returns a client with a pump request for each of ids (none
// for a client that only opens, closes or scrapes).
func newClient(h http.Handler, ids ...string) (*client, error) {
	c := &client{h: h, rw: newRespWriter()}
	for _, id := range ids {
		b := &reqBody{}
		req, err := http.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/pump", b)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		c.pumps = append(c.pumps, req)
		c.body = append(c.body, b)
	}
	return c, nil
}

// do sends one request through the handler and returns status and body;
// the body is valid until the next call.
func (c *client) do(req *http.Request) (int, []byte) {
	c.rw.reset()
	c.h.ServeHTTP(c.rw, req)
	return c.rw.status, c.rw.body.Bytes()
}

// pumpAck is the pump response as the client reads it.
type pumpAck struct {
	Completed  int64            `json:"completed"`
	SinkTokens map[string]int64 `json:"sink_tokens"`
}

// pump issues one pump of pumpIters iterations to session slot and
// decodes the ack.
func (c *client) pump(slot int) (pumpAck, error) {
	c.body[slot].Reset(pumpBody)
	status, body := c.do(c.pumps[slot])
	var ack pumpAck
	if status != http.StatusOK {
		return ack, fmt.Errorf("pump: HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return ack, fmt.Errorf("pump: bad ack %q: %w", body, err)
	}
	return ack, nil
}

// fleet is one set-up serve instance: a server, its open sessions and the
// number of pumps each has acknowledged.
type fleet struct {
	plan    *fleetPlan
	srv     *serve.Server
	ids     []string
	cl      *client
	acked   []int64
	dataDir string
}

// openFleet builds a server and opens every session of the plan through
// the HTTP handler. dataDir, when non-empty, makes the sessions durable.
func openFleet(tr *tracer, fp *fleetPlan, dataDir string) (*fleet, error) {
	sp := tr.begin("serve.new")
	srv := serve.New(serve.Config{DataDir: dataDir})
	tr.end(sp)
	f := &fleet{plan: fp, srv: srv, dataDir: dataDir, acked: make([]int64, len(fp.sessions))}
	h := srv.Handler()
	opener, _ := newClient(h) // no pump requests to build: cannot fail
	for _, s := range fp.sessions {
		req, err := http.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(s.openBody))
		if err != nil {
			return nil, err
		}
		sp := tr.begin("serve.open")
		status, body := opener.do(req)
		tr.end(sp)
		if status != http.StatusCreated {
			f.close() //nolint:errcheck // reporting the open failure
			return nil, fmt.Errorf("open %s: HTTP %d: %s", s.graph, status, bytes.TrimSpace(body))
		}
		var opened struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &opened); err != nil || opened.ID == "" {
			f.close() //nolint:errcheck // reporting the open failure
			return nil, fmt.Errorf("open %s: bad response %q", s.graph, body)
		}
		f.ids = append(f.ids, opened.ID)
	}
	cl, err := newClient(h, f.ids...)
	if err != nil {
		f.close() //nolint:errcheck // reporting the client failure
		return nil, err
	}
	f.cl = cl
	return f, nil
}

// pumpChecked pumps one session through cl and checks the ack against the
// reference: completed is 8 × pumps so far, every sink total is pumps ×
// the reference run's.
func (f *fleet) pumpChecked(tr *tracer, cl *client, slot int) error {
	sp := tr.begin("serve.handler")
	ack, err := cl.pump(slot)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("session %s: %w", f.ids[slot], err)
	}
	f.acked[slot]++
	n := f.acked[slot]
	if ack.Completed != n*pumpIters {
		return fmt.Errorf("session %s: ack says %d completed after %d pumps", f.ids[slot], ack.Completed, n)
	}
	want := f.plan.sessions[slot].perPump
	if len(ack.SinkTokens) != len(want) {
		return fmt.Errorf("session %s: ack reports %d sinks, reference %d", f.ids[slot], len(ack.SinkTokens), len(want))
	}
	for name, per := range want {
		if got := ack.SinkTokens[name]; got != n*per {
			return fmt.Errorf("session %s: sink %s at %d tokens after %d pumps, reference %d", f.ids[slot], name, got, n, n*per)
		}
	}
	return nil
}

// verifyDurable loads every session's newest snapshot from disk and
// requires its completed count to equal the last acknowledged one: an ack
// promised exactly that.
func (f *fleet) verifyDurable() error {
	st, err := tpdf.OpenSnapshotStore(f.dataDir, 3)
	if err != nil {
		return err
	}
	for slot, id := range f.ids {
		snap, err := st.Load(id)
		if err != nil {
			return fmt.Errorf("session %s: loading newest snapshot: %w", id, err)
		}
		if want := f.acked[slot] * pumpIters; snap.Checkpoint.Completed != want {
			return fmt.Errorf("session %s: newest snapshot at %d iterations, last ack %d", id, snap.Checkpoint.Completed, want)
		}
	}
	return nil
}

// close closes every session through the handler, shuts the server down
// and removes the data directory.
func (f *fleet) close() error {
	var first error
	cl, _ := newClient(f.srv.Handler()) // no pump requests to build: cannot fail
	for _, id := range f.ids {
		req, err := http.NewRequest(http.MethodDelete, "/v1/sessions/"+id, nil)
		if err != nil {
			return err
		}
		if status, body := cl.do(req); status != http.StatusOK && first == nil {
			first = fmt.Errorf("close %s: HTTP %d: %s", id, status, bytes.TrimSpace(body))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	if f.dataDir != "" {
		if err := os.RemoveAll(f.dataDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tmpfsMagic is the statfs type of a tmpfs mount.
const tmpfsMagic = 0x01021994

// durableRoot picks where snapshot directories go: /dev/shm when it is a
// writable tmpfs, so that the numbers measure the program's persist path
// (capture, encode, create/write/rename/prune) and not the shared disk's
// fsync, which does not repeat; otherwise the build directory inside the
// checkout. The second result names the choice for the log.
func durableRoot() (string, string) {
	var st syscall.Statfs_t
	if err := syscall.Statfs("/dev/shm", &st); err == nil && int64(st.Type) == tmpfsMagic {
		if dir, err := os.MkdirTemp("/dev/shm", "tpdf-bench-probe-"); err == nil {
			os.Remove(dir)
			return "/dev/shm", "tmpfs"
		}
	}
	return ".bench_build", "disk"
}

func fleetWorkload(name, why string, durable bool) workload {
	return workload{
		name: name,
		why:  why,
		prepare: func(seed int64) (*plan, error) {
			fp, err := newFleetPlan(seed)
			if err != nil {
				return nil, err
			}
			root := ""
			if durable {
				var fs string
				root, fs = durableRoot()
				if err := os.MkdirAll(root, 0o755); err != nil {
					return nil, err
				}
				logf("%s: durable.fs=%s (%s)", name, fs, root)
			}
			return &plan{
				opKey: fp.opKey,
				setup: func(tr *tracer) (*live, error) {
					dataDir := ""
					if durable {
						dir, err := os.MkdirTemp(root, "tpdf-bench-data-")
						if err != nil {
							return nil, err
						}
						if dataDir, err = filepath.Abs(dir); err != nil {
							return nil, err
						}
					}
					f, err := openFleet(tr, fp, dataDir)
					if err != nil {
						if dataDir != "" {
							os.RemoveAll(dataDir)
						}
						return nil, err
					}
					lv := &live{
						op: func(tr *tracer, n int) error {
							return f.pumpChecked(tr, f.cl, fp.order[n%len(fp.order)])
						},
						teardown: f.close,
					}
					if durable {
						lv.verify = f.verifyDurable
					}
					return lv, nil
				},
			}, nil
		},
	}
}

func servePumpWorkload() workload {
	return fleetWorkload("serve-pump",
		"16 light sessions pumped through the HTTP handler: the serve layers and the per-iteration barrier are the cost, not firings",
		false)
}

func serveDurableWorkload() workload {
	return fleetWorkload("serve-durable",
		"serve-pump with DataDir set: same traffic, the only difference is the persist path before every ack",
		true)
}
