package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
)

func durableConfig(t *testing.T) (Config, string) {
	t.Helper()
	dir := t.TempDir()
	return Config{DataDir: dir, DrainTimeout: 10 * time.Second}, dir
}

// TestDurableCrashRecovery is the tentpole acceptance test at the package
// level: acked pumps survive an abrupt process death (simulated by
// abandoning the manager without draining — no deferred flush runs), a
// second manager on the same data directory rebuilds the session, and the
// recovered session's subsequent output is identical to an uninterrupted
// reference run.
func TestDurableCrashRecovery(t *testing.T) {
	cfg, dir := durableConfig(t)
	ctx := ctxT(t)

	m1 := NewManager(cfg)
	if m1.storeErr != nil {
		t.Fatalf("store open: %v", m1.storeErr)
	}
	s, err := m1.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const acked = 3
	if n, err := s.Pump(ctx, acked, nil); err != nil || n != acked {
		t.Fatalf("pump: n=%d err=%v", n, err)
	}
	// Crash: walk away. No Drain, no Close — exactly what SIGKILL leaves
	// behind. The pump ack above already flushed its cut to disk.
	crashID := s.ID

	m2 := NewManager(cfg)
	rec := m2.Recover(ctx)
	if rec.Recovered != 1 || rec.Failed != 0 || rec.Active {
		t.Fatalf("recovery stats: %+v", rec)
	}
	rs, err := m2.Get(crashID)
	if err != nil {
		t.Fatalf("recovered session not resolvable: %v", err)
	}
	if got := rs.Completed(); got != acked {
		t.Fatalf("recovered completed = %d, want %d (acked)", got, acked)
	}

	// Fresh sessions must not collide with recovered IDs.
	s2, err := m2.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open after recovery: %v", err)
	}
	if s2.ID == crashID {
		t.Fatalf("new session reused recovered ID %q", crashID)
	}

	// The resumed leg must land exactly where an uninterrupted run does.
	const total = 7
	if n, err := rs.Pump(ctx, total-acked, nil); err != nil || n != total {
		t.Fatalf("pump recovered: n=%d err=%v", n, err)
	}
	ref := NewManager(Config{})
	refS, err := ref.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open reference: %v", err)
	}
	if _, err := refS.Pump(ctx, total, nil); err != nil {
		t.Fatalf("pump reference: %v", err)
	}
	if got, want := rs.SinkTokens(), refS.SinkTokens(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered sink tokens %v, want %v", got, want)
	}

	st := m2.Stats()
	if st.Durable == nil || st.Durable.Recovered != 1 {
		t.Fatalf("durable stats missing recovery: %+v", st.Durable)
	}
	if st.Recovery == nil || st.Recovery.Recovered != 1 {
		t.Fatalf("recovery stats missing: %+v", st.Recovery)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, crashID)); err != nil || len(entries) == 0 {
		t.Fatalf("snapshot dir for %s: entries=%d err=%v", crashID, len(entries), err)
	}
	if err := m2.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDurableCloseDeletesDrainKeeps verifies the retention split: a client
// DELETE removes the session's snapshots (no disk leak), while a fleet
// drain keeps them so the next boot resumes every still-open session.
func TestDurableCloseDeletesDrainKeeps(t *testing.T) {
	cfg, dir := durableConfig(t)
	ctx := ctxT(t)

	m1 := NewManager(cfg)
	closed, err := m1.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := closed.Pump(ctx, 2, nil); err != nil {
		t.Fatalf("pump: %v", err)
	}
	kept, err := m1.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open 2: %v", err)
	}
	if _, err := kept.Pump(ctx, 4, nil); err != nil {
		t.Fatalf("pump 2: %v", err)
	}

	if _, err := m1.Close(ctx, closed.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, closed.ID)); !os.IsNotExist(err) {
		t.Fatalf("client-closed session left snapshots: %v", err)
	}
	if st := m1.Stats(); st.Durable == nil || st.Durable.Deleted != 1 {
		t.Fatalf("deleted counter: %+v", st.Durable)
	}

	if err := m1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, kept.ID)); err != nil || len(entries) == 0 {
		t.Fatalf("drained session lost snapshots: entries=%d err=%v", len(entries), err)
	}

	m2 := NewManager(cfg)
	rec := m2.Recover(ctx)
	if rec.Recovered != 1 || rec.Failed != 0 {
		t.Fatalf("recovery stats after drain: %+v", rec)
	}
	rs, err := m2.Get(kept.ID)
	if err != nil {
		t.Fatalf("drained session not recovered: %v", err)
	}
	if got := rs.Completed(); got != 4 {
		t.Fatalf("recovered completed = %d, want 4", got)
	}
	if err := m2.Drain(ctx); err != nil {
		t.Fatalf("drain 2: %v", err)
	}
}

// TestRecoverReportsFailures: a session directory whose log is all
// garbage is reported (with a reason) and left on disk for forensics,
// while valid neighbors still recover.
func TestRecoverReportsFailures(t *testing.T) {
	cfg, dir := durableConfig(t)
	ctx := ctxT(t)

	m1 := NewManager(cfg)
	s, err := m1.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := s.Pump(ctx, 2, nil); err != nil {
		t.Fatalf("pump: %v", err)
	}
	if err := m1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	bad := filepath.Join(dir, "s99")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "log"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(cfg)
	rec := m2.Recover(ctx)
	if rec.Recovered != 1 || rec.Failed != 1 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	if len(rec.Reasons) != 1 || !strings.HasPrefix(rec.Reasons[0], "s99: ") {
		t.Fatalf("failure reasons: %v", rec.Reasons)
	}
	if _, err := os.Stat(filepath.Join(bad, "log")); err != nil {
		t.Fatalf("failed session's snapshots should stay on disk: %v", err)
	}
	if st := m2.Stats(); st.Durable.RecoveryFailed != 1 {
		t.Fatalf("recoveryFailed counter: %+v", st.Durable)
	}
	// seedNextID pushed numbering past every on-disk directory — including
	// the unrecoverable s99, whose snapshot directory a fresh session must
	// never write into.
	s2, err := m2.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if s2.ID == s.ID || s2.ID == "s99" {
		t.Fatalf("new session reused on-disk ID %q", s2.ID)
	}
	if err := m2.Drain(ctx); err != nil {
		t.Fatalf("drain 2: %v", err)
	}
}

// TestRecoverRefusesForeignUserState: a snapshot is outside input. One that
// passes every checksum but whose user state is not this graph's sink
// counters — too short, or another type: another build, an edited graph —
// used to panic in restoreSinks on the goroutine Server.Start spawned, i.e.
// kill the process at boot. Cold recovery refuses it with a reason, leaves
// it on disk, and recovers the neighbors.
func TestRecoverRefusesForeignUserState(t *testing.T) {
	cfg, dir := durableConfig(t)
	ctx := ctxT(t)

	m1 := NewManager(cfg)
	s, err := m1.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := s.Pump(ctx, 2, nil); err != nil {
		t.Fatalf("pump: %v", err)
	}
	if err := m1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st, err := durable.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := st.LoadNewest(s.ID)
	if err != nil {
		t.Fatalf("load %s: %v", s.ID, err)
	}
	for id, user := range map[string]any{"s98": []int64{}, "s99": "not counters"} {
		snap.SessionID, snap.Checkpoint.User = id, user
		enc, err := durable.Encode(nil, snap)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := st.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.Write(enc); err != nil {
			t.Fatal(err)
		}
	}

	m2 := NewManager(cfg)
	rec := m2.Recover(ctx)
	if rec.Recovered != 1 || rec.Failed != 2 || len(rec.Reasons) != 2 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	for i, id := range []string{"s98", "s99"} {
		if !strings.HasPrefix(rec.Reasons[i], id+": ") || !strings.Contains(rec.Reasons[i], "user state") {
			t.Errorf("reason %d = %q, want %s refused for its user state", i, rec.Reasons[i], id)
		}
		if ents, err := os.ReadDir(filepath.Join(dir, id)); err != nil || len(ents) == 0 {
			t.Errorf("refused session %s should stay on disk: %v, %d files", id, err, len(ents))
		}
	}
	got, err := m2.Get(s.ID)
	if err != nil || got.Completed() != 2 || !reflect.DeepEqual(got.SinkTokens(), s.SinkTokens()) {
		t.Fatalf("neighbor %s not recovered intact", s.ID)
	}
	if err := m2.Drain(ctx); err != nil {
		t.Fatalf("drain 2: %v", err)
	}
}

// TestOpenDuringRecoveryNoIDCollision: the ID counter is seeded from the
// on-disk store synchronously at NewManager — before the listener can
// admit anyone — so a client Open racing background recovery is never
// handed an ID matching a not-yet-recovered durable session (which would
// write into, and eventually prune away, that session's snapshots).
func TestOpenDuringRecoveryNoIDCollision(t *testing.T) {
	cfg, _ := durableConfig(t)
	ctx := ctxT(t)

	m1 := NewManager(cfg)
	s, err := m1.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const acked = 3
	if _, err := s.Pump(ctx, acked, nil); err != nil {
		t.Fatalf("pump: %v", err)
	}
	// Crash (no drain), restart — and admit a client BEFORE recovery runs,
	// exactly the window a listener accepting ahead of background recovery
	// leaves open.
	m2 := NewManager(cfg)
	early, err := m2.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open during recovery window: %v", err)
	}
	if early.ID == s.ID {
		t.Fatalf("racing Open reused on-disk session ID %q", s.ID)
	}
	rec := m2.Recover(ctx)
	if rec.Recovered != 1 || rec.Failed != 0 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	rs, err := m2.Get(s.ID)
	if err != nil {
		t.Fatalf("durable session lost to the racing Open: %v", err)
	}
	if got := rs.Completed(); got != acked {
		t.Fatalf("recovered completed = %d, want %d (acked)", got, acked)
	}
	if err := m2.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDurableSessionsLeakNoFDs: a durable session holds its log open while
// it runs; closing it (a client DELETE, which removes the log) or draining
// it (which keeps the log) gives the descriptor back. Only descriptors on
// files under the data directory are counted, so files other tests left
// for the garbage collector to close do not blur the count.
func TestDurableSessionsLeakNoFDs(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd")
	}
	cfg, dir := durableConfig(t)
	ctx := ctxT(t)
	fds := func() (n int) {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) {
				n++
			}
		}
		return n
	}

	m := NewManager(cfg)
	const n = 8
	for i := 0; i < n; i++ {
		s, err := m.Open(ctx, "acme", testGraph(t), nil, nil)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := s.Pump(ctx, 2, nil); err != nil {
			t.Fatalf("pump: %v", err)
		}
		if i%2 == 0 {
			if _, err := m.Close(ctx, s.ID); err != nil {
				t.Fatalf("close: %v", err)
			}
		}
	}
	if open := fds(); open != n/2 {
		t.Fatalf("%d descriptors on the data directory with %d durable sessions open, want one log each", open, n/2)
	}
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if left := fds(); left != 0 {
		t.Fatalf("%d descriptors on the data directory after every session closed", left)
	}
	// The manager holds the store, so no finalizer closed a leaked log.
	runtime.KeepAlive(m)
}

// TestPumpNotDurableOnFlushFailure: when the synchronous flush covering a
// pump fails, the pump must fail with ErrNotDurable instead of acking work
// that is not crash-safe. The iterations still ran — the count is reported
// — and the session recovers once the store is writable again.
func TestPumpNotDurableOnFlushFailure(t *testing.T) {
	cfg, dir := durableConfig(t)
	ctx := ctxT(t)

	m := NewManager(cfg)
	s, err := m.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if n, err := s.Pump(ctx, 2, nil); err != nil || n != 2 {
		t.Fatalf("pump: n=%d err=%v", n, err)
	}

	// Break the store out from under the session: replace its snapshot
	// directory with a plain file, so writes fail (ENOTDIR) even as root.
	sessDir := filepath.Join(dir, s.ID)
	if err := os.RemoveAll(sessDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sessDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := s.Pump(ctx, 3, nil)
	if !errors.Is(err, ErrNotDurable) {
		t.Fatalf("pump on broken store: err=%v, want ErrNotDurable", err)
	}
	if n != 5 {
		t.Fatalf("completed = %d, want 5 (the work ran; only durability failed)", n)
	}
	if st := m.Stats(); st.Durable == nil || st.Durable.PersistErrors == 0 {
		t.Fatalf("persist errors not counted: %+v", st.Durable)
	}

	// Repair the store: the next pump offers a fresh cut, flushes it, and
	// acks durably again.
	if err := os.Remove(sessDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(sessDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Pump(ctx, 1, nil); err != nil || n != 6 {
		t.Fatalf("pump after repair: n=%d err=%v", n, err)
	}
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestHealthzRecovering: the health endpoint answers 503 "recovering"
// while cold-start recovery runs, then 200 once it completes.
func TestHealthzRecovering(t *testing.T) {
	srv := New(Config{})
	srv.m.recovering.Store(true)

	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "recovering") {
		t.Fatalf("healthz during recovery: %d %s", rr.Code, rr.Body.String())
	}

	srv.m.recovering.Store(false)
	rr = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz after recovery: %d %s", rr.Code, rr.Body.String())
	}
}

// TestDurableMetricsExposed: the /metrics surface carries the
// tpdf_durable_* families once a store is configured.
func TestDurableMetricsExposed(t *testing.T) {
	cfg, _ := durableConfig(t)
	ctx := ctxT(t)

	srv := New(cfg)
	s, err := srv.m.Open(ctx, "acme", testGraph(t), nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := s.Pump(ctx, 2, nil); err != nil {
		t.Fatalf("pump: %v", err)
	}

	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		`tpdf_durable_events_total{event="persist"}`,
		"tpdf_durable_snapshot_bytes",
		"tpdf_durable_bytes_total",
		"tpdf_durable_persist_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if err := srv.m.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
