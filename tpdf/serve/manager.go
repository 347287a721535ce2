package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/tpdf"
	"repro/tpdf/obs"
)

// Sentinel errors; the HTTP layer maps them to status codes.
var (
	// ErrBusy: the server is saturated (no session slot or batch worker
	// became free within the admission wait, the admission queue is full,
	// or the program cache is at capacity). HTTP 429.
	ErrBusy = errors.New("serve: busy")
	// ErrQuota: the tenant is at its session quota. HTTP 429.
	ErrQuota = errors.New("serve: tenant quota exceeded")
	// ErrShuttingDown: the server is draining. HTTP 503.
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrNotAdmissible: static analysis refused the graph (inconsistent,
	// unsafe, deadlocked or unbounded — a session of it could not run in
	// bounded memory). HTTP 422.
	ErrNotAdmissible = errors.New("serve: graph not admissible")
	// ErrNotFound: unknown session ID. HTTP 404.
	ErrNotFound = errors.New("serve: no such session")
	// ErrClosed: the session was already drained. HTTP 409.
	ErrClosed = errors.New("serve: session closed")
	// ErrNotDurable: a pump ran to completion but the synchronous flush of
	// its covering checkpoint failed — the session keeps running, but the
	// completed work is not crash-safe. HTTP 500.
	ErrNotDurable = errors.New("serve: pump not durable")
)

// Config bounds the service. Every limit exists so that saturation turns
// into a rejected request instead of unbounded memory: slots bound live
// engines, the queue bounds waiting openers, quotas bound any one tenant,
// batch workers bound concurrent analysis jobs, and the program cache
// bounds distinct compiled graphs.
type Config struct {
	// MaxSessions bounds concurrently open sessions (default 256).
	MaxSessions int
	// MaxSessionsPerTenant bounds one tenant's share (default MaxSessions).
	MaxSessionsPerTenant int
	// AdmitWait is how long an opener may queue for a free slot before
	// being rejected with ErrBusy (default 100ms; 0 keeps the default,
	// negative disables queueing).
	AdmitWait time.Duration
	// MaxQueue bounds openers waiting for a slot (default MaxSessions).
	MaxQueue int
	// MaxPrograms bounds the compiled-program cache (default 1024).
	MaxPrograms int
	// BatchWorkers bounds concurrently executing batch (analyze/sweep)
	// requests; excess requests queue up to AdmitWait (default 2).
	BatchWorkers int
	// SweepParallelism is the worker-pool width a single sweep request may
	// use (default 1: batch concurrency comes from BatchWorkers).
	SweepParallelism int
	// DrainTimeout bounds graceful shutdown: sessions that have not
	// reached a barrier by then are cancelled (default 5s).
	DrainTimeout time.Duration
	// MaxRestarts bounds per-session engine restarts after behavior
	// panics (default 3; negative disables recovery — the first panic
	// fails the session). Each restart resumes at once from the newest cut
	// (tpdf.WithPanicRecovery); the session fails on the panic past the
	// budget.
	MaxRestarts int
	// EnableChaos accepts ChaosSpec fault-injection requests at session
	// open (the tpdf-serve -chaos flag). Off by default: a production
	// server refuses injected faults.
	EnableChaos bool
	// DataDir enables durable sessions: every session streams its barrier
	// checkpoints to a per-session snapshot store under this directory
	// (crash-safe tmp-write → fsync → rename), a pump is acknowledged only
	// after its covering checkpoint is fsynced (a failed flush fails the
	// pump with ErrNotDurable — the work ran but is reported non-durable),
	// and a restarted server recovers every session from its newest valid
	// snapshot. Empty (the default) keeps all checkpoints in memory.
	DataDir string
	// KeepSnapshots bounds per-session snapshot retention (default 3;
	// older files are pruned after each successful write). More than one is
	// kept so a torn newest write falls back instead of losing the session.
	KeepSnapshots int
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxSessionsPerTenant <= 0 {
		c.MaxSessionsPerTenant = c.MaxSessions
	}
	if c.AdmitWait == 0 {
		c.AdmitWait = 100 * time.Millisecond
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxSessions
	}
	if c.MaxPrograms <= 0 {
		c.MaxPrograms = 1024
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = 2
	}
	if c.SweepParallelism <= 0 {
		c.SweepParallelism = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.KeepSnapshots <= 0 {
		c.KeepSnapshots = 3
	}
	return c
}

// Stats is the service-level counter snapshot exposed by /v1/stats.
type Stats struct {
	Sessions       int        `json:"sessions"`
	Tenants        int        `json:"tenants"`
	QueueDepth     int64      `json:"queue_depth"`
	Draining       bool       `json:"draining"`
	Opened         int64      `json:"opened"`
	Drained        int64      `json:"drained"`
	Failed         int64      `json:"failed"`
	RejectedBusy   int64      `json:"rejected_busy"`
	RejectedQuota  int64      `json:"rejected_quota"`
	RejectedGraph  int64      `json:"rejected_graph"`
	BatchJobs      int64      `json:"batch_jobs"`
	BatchRejected  int64      `json:"batch_rejected"`
	Cache          CacheStats `json:"cache"`
	IterationsLive int64      `json:"iterations_live"`
	// Fault-tolerance counters, summed over the fleet's lifetime:
	// behavior panics recovered into transaction aborts, supervisor
	// engine restarts, and reconfigurations rejected at barriers.
	Panics       int64 `json:"panics"`
	Restarts     int64 `json:"restarts"`
	RebindAborts int64 `json:"rebind_aborts"`
	// Durable reports snapshot-store activity; nil when the server runs
	// without -data-dir.
	Durable *DurableStats `json:"durable,omitempty"`
	// Recovery reports cold-start recovery progress; nil when the server
	// runs without -data-dir.
	Recovery *RecoveryStats `json:"recovery,omitempty"`
}

// DurableStats is the snapshot-store counter snapshot.
type DurableStats struct {
	// Snapshots counts successful snapshot writes; PersistErrors failed
	// ones. Bytes is the cumulative encoded size, LastSnapshotBytes the
	// newest snapshot's size.
	Snapshots         int64 `json:"snapshots"`
	PersistErrors     int64 `json:"persist_errors"`
	Bytes             int64 `json:"bytes"`
	LastSnapshotBytes int64 `json:"last_snapshot_bytes"`
	// TornDiscarded counts snapshot files skipped as torn or corrupt
	// during recovery (each was a crash casualty; recovery fell back to an
	// older valid snapshot).
	TornDiscarded int64 `json:"torn_discarded"`
	// Recovered / RecoveryFailed count cold-start session recoveries.
	Recovered      int64 `json:"recovered"`
	RecoveryFailed int64 `json:"recovery_failed"`
	// Deleted counts snapshot sets removed after client session closes.
	Deleted int64 `json:"deleted"`
}

// RecoveryStats is the cold-start recovery progress /v1/stats reports
// while (and after) the server rebuilds its fleet from the snapshot store.
type RecoveryStats struct {
	// Active is true while recovery is still running (healthz answers 503
	// "recovering" meanwhile).
	Active bool `json:"active"`
	// Total is the number of sessions found in the store at boot; Pending
	// counts those not yet attempted.
	Total   int `json:"total"`
	Pending int `json:"pending"`
	// Recovered sessions are re-opened and resumed; Failed ones could not
	// be (Reasons explains each).
	Recovered int      `json:"recovered"`
	Failed    int      `json:"failed"`
	Reasons   []string `json:"reasons,omitempty"`
}

// durableCounters aggregates snapshot-store events across the fleet.
type durableCounters struct {
	snapshots      atomic.Int64
	persistErrs    atomic.Int64
	bytes          atomic.Int64
	lastSize       atomic.Int64
	torn           atomic.Int64
	recovered      atomic.Int64
	recoveryFailed atomic.Int64
	deleted        atomic.Int64
	persistLatency *obs.Histogram
}

func (d *durableCounters) stats() *DurableStats {
	return &DurableStats{
		Snapshots:         d.snapshots.Load(),
		PersistErrors:     d.persistErrs.Load(),
		Bytes:             d.bytes.Load(),
		LastSnapshotBytes: d.lastSize.Load(),
		TornDiscarded:     d.torn.Load(),
		Recovered:         d.recovered.Load(),
		RecoveryFailed:    d.recoveryFailed.Load(),
		Deleted:           d.deleted.Load(),
	}
}

// Manager owns the session fleet: admission, the shared program cache,
// per-tenant accounting and graceful drain.
type Manager struct {
	cfg   Config
	cache *ProgramCache

	slots  chan struct{}
	batch  chan struct{}
	queued atomic.Int64
	closed atomic.Bool

	mu        sync.Mutex
	sessions  map[string]*Session
	perTenant map[string]int
	nextID    atomic.Int64

	opened        atomic.Int64
	drained       atomic.Int64
	failed        atomic.Int64
	rejectedBusy  atomic.Int64
	rejectedQuota atomic.Int64
	rejectedGraph atomic.Int64
	batchJobs     atomic.Int64
	batchRejected atomic.Int64
	fleet         fleetCounters

	// Durable-session state: the snapshot store (nil without DataDir; a
	// failed open is stashed in storeErr and surfaced by Server.Start),
	// fleet-wide durability counters, and cold-start recovery progress.
	store      *tpdf.SnapshotStore
	storeErr   error
	durable    durableCounters
	recovering atomic.Bool
	recMu      sync.Mutex
	recovery   RecoveryStats
}

// NewManager builds a manager with the configured bounds.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:       cfg,
		cache:     NewProgramCache(cfg.MaxPrograms),
		slots:     make(chan struct{}, cfg.MaxSessions),
		batch:     make(chan struct{}, cfg.BatchWorkers),
		sessions:  map[string]*Session{},
		perTenant: map[string]int{},
	}
	m.durable.persistLatency = obs.NewLatencyHistogram()
	if cfg.DataDir != "" {
		m.store, m.storeErr = tpdf.OpenSnapshotStore(cfg.DataDir, cfg.KeepSnapshots)
		if m.storeErr == nil {
			m.storeErr = m.seedNextID()
		}
	}
	return m
}

// seedNextID raises the session-ID counter past every session directory
// already in the store — synchronously, before any Open can run. Cold-start
// recovery happens in the background while the listener already accepts
// requests, so without this an Open racing recovery could be handed an ID
// matching an on-disk session not yet recovered; the new session's
// persister would then write into (and keep-last-K pruning would
// eventually delete) the durable session's snapshots, silently losing
// acked state. Directories that later fail to recover count too: a fresh
// session must never share a snapshot directory with anything on disk.
func (m *Manager) seedNextID() error {
	ids, err := m.store.IDs()
	if err != nil {
		return err
	}
	var maxID int64
	for _, id := range ids {
		if n, perr := strconv.ParseInt(strings.TrimPrefix(id, "s"), 10, 64); perr == nil && n > maxID {
			maxID = n
		}
	}
	m.nextID.Store(maxID)
	return nil
}

// durableEnv renders the durability context sessions persist through; nil
// when the server runs without a data directory.
func (m *Manager) durableEnv() *durableEnv {
	if m.store == nil {
		return nil
	}
	return &durableEnv{store: m.store, counters: &m.durable}
}

// Compile resolves a graph through the shared program cache (one compile +
// one analysis per distinct graph, fleet-wide).
func (m *Manager) Compile(g *tpdf.Graph) (*tpdf.CompiledGraph, *tpdf.Report, error) {
	return m.cache.Get(g)
}

// acquireSlot implements the bounded admission queue: an immediate slot if
// one is free, otherwise wait up to AdmitWait in a queue bounded by
// MaxQueue; saturation beyond that is an immediate ErrBusy. A caller whose
// context is already done never queues.
func (m *Manager) acquireSlot(ctx context.Context) error {
	select {
	case m.slots <- struct{}{}:
		return nil
	default:
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%w: no session slot", ErrBusy)
	}
	if m.cfg.AdmitWait < 0 {
		return fmt.Errorf("%w: %d sessions open", ErrBusy, m.cfg.MaxSessions)
	}
	if m.queued.Add(1) > int64(m.cfg.MaxQueue) {
		m.queued.Add(-1)
		return fmt.Errorf("%w: admission queue full", ErrBusy)
	}
	defer m.queued.Add(-1)
	t := time.NewTimer(m.cfg.AdmitWait)
	defer t.Stop()
	select {
	case m.slots <- struct{}{}:
		return nil
	case <-t.C:
		return fmt.Errorf("%w: %d sessions open", ErrBusy, m.cfg.MaxSessions)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Open admits one session: tenant quota, bounded slot, cached compile,
// boundedness verdict, then stamp and start. On success the session is
// registered and its engine parks at the completed=0 barrier awaiting the
// first pump. A non-nil chaos spec (deterministic fault injection) is
// honored only when the server runs with Config.EnableChaos.
func (m *Manager) Open(ctx context.Context, tenant string, g *tpdf.Graph, params map[string]int64, chaos *ChaosSpec) (*Session, error) {
	if chaos != nil && !m.cfg.EnableChaos {
		return nil, fmt.Errorf("serve: chaos injection requested but the server runs without -chaos")
	}
	s, err := m.admit(ctx, "", tenant, g, params, chaos, nil)
	switch {
	case err == nil:
		m.opened.Add(1)
	case errors.Is(err, ErrQuota):
		m.rejectedQuota.Add(1)
	case errors.Is(err, ErrBusy):
		m.rejectedBusy.Add(1)
	case errors.Is(err, ErrNotAdmissible):
		m.rejectedGraph.Add(1)
	}
	return s, err
}

// admit is the one admission path, shared by Open (id "": a fresh ID is
// minted) and cold-start recovery (the recorded ID and tenant, resuming
// from the snapshot's checkpoint): reserve the tenant quota, take a slot,
// start the session, register it. Whether a full fleet is worth queueing
// for is the caller's context's call — see acquireSlot.
func (m *Manager) admit(ctx context.Context, id, tenant string, g *tpdf.Graph, params map[string]int64,
	chaos *ChaosSpec, resume *tpdf.Checkpoint) (*Session, error) {
	if m.closed.Load() {
		return nil, ErrShuttingDown
	}
	if tenant == "" {
		tenant = "default"
	}

	// Reserve the tenant quota before queueing for a slot so an over-quota
	// tenant cannot occupy the admission queue.
	m.mu.Lock()
	if m.perTenant[tenant] >= m.cfg.MaxSessionsPerTenant {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q at %d sessions", ErrQuota, tenant, m.cfg.MaxSessionsPerTenant)
	}
	m.perTenant[tenant]++
	m.mu.Unlock()

	err := m.acquireSlot(ctx)
	var s *Session
	if err == nil {
		if s, err = m.start(id, tenant, g, params, chaos, resume); err != nil {
			<-m.slots
		}
	}
	if err != nil {
		m.mu.Lock()
		if m.perTenant[tenant]--; m.perTenant[tenant] == 0 {
			delete(m.perTenant, tenant)
		}
		m.mu.Unlock()
		return nil, err
	}

	m.mu.Lock()
	m.sessions[s.ID] = s
	m.mu.Unlock()
	// Drain may have begun between start's check and the registration: its
	// ID snapshot would then miss this session, leaking an engine (and its
	// slot) past shutdown. Re-check after registering — one side of the race
	// always sees the other. Closing a registered session returns its slot
	// and quota; a refused fresh session takes its snapshots with it, a
	// recovered one's stay on disk.
	if m.closed.Load() {
		dctx, cancel := context.WithTimeout(context.Background(), m.cfg.DrainTimeout)
		_, _ = m.closeSession(dctx, s.ID, resume == nil)
		cancel()
		return nil, ErrShuttingDown
	}
	return s, nil
}

// start is admit's slot-holding half: resolve the graph through the shared
// program cache, require the Theorem 2 boundedness verdict, then stamp and
// start the session.
func (m *Manager) start(id, tenant string, g *tpdf.Graph, params map[string]int64,
	chaos *ChaosSpec, resume *tpdf.Checkpoint) (*Session, error) {
	compiled, report, err := m.cache.Get(g)
	if errors.Is(err, ErrNotAdmissible) {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotAdmissible, err)
	}
	if report.Err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotAdmissible, report.Err)
	}
	if !report.Bounded {
		return nil, fmt.Errorf("%w: graph %q is not bounded (Theorem 2)", ErrNotAdmissible, report.GraphName)
	}
	if m.closed.Load() {
		return nil, ErrShuttingDown
	}
	if id == "" {
		id = "s" + strconv.FormatInt(m.nextID.Add(1), 10)
	}
	return newSession(id, tenant, compiled, params, chaos, max(m.cfg.MaxRestarts, 0), &m.fleet, m.durableEnv(), resume)
}

// Draining reports whether the manager has begun shutting down: new
// admissions are refused and /healthz answers 503 so load balancers stop
// routing here while in-flight sessions park and exit.
func (m *Manager) Draining() bool { return m.closed.Load() }

// QueueDepth is the number of openers currently waiting for a session slot.
func (m *Manager) QueueDepth() int64 { return m.queued.Load() }

// Sessions snapshots the open sessions in ID order (for the metrics
// exposition, which must emit stable series across scrapes).
func (m *Manager) Sessions() []*Session {
	m.mu.Lock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get looks a session up by ID.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s, nil
}

// Close drains one session (bounded by ctx) and frees its slot and quota.
// A client close is final: the session's durable snapshots are deleted, so
// a restarted server does not resurrect a session its client finished
// with. (Fleet Drain keeps snapshots — see closeSession.)
func (m *Manager) Close(ctx context.Context, id string) (*tpdf.ExecResult, error) {
	return m.closeSession(ctx, id, true)
}

// closeSession is the shared drain-one-session path. removeSnapshots
// distinguishes a client's DELETE (final — snapshots are disk leaks once
// the client has its result) from a graceful shutdown (snapshots are the
// whole point: the next boot resumes from them).
func (m *Manager) closeSession(ctx context.Context, id string, removeSnapshots bool) (*tpdf.ExecResult, error) {
	m.mu.Lock()
	s := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	res, err := s.Drain(ctx)
	m.mu.Lock()
	if m.perTenant[s.Tenant]--; m.perTenant[s.Tenant] == 0 {
		delete(m.perTenant, s.Tenant)
	}
	m.mu.Unlock()
	<-m.slots
	if err != nil {
		m.failed.Add(1)
	} else {
		m.drained.Add(1)
	}
	if removeSnapshots && m.store != nil {
		// Drain already closed the session's persister (final flush), so
		// no writer races the removal.
		if rerr := m.store.Remove(id); rerr == nil {
			m.durable.deleted.Add(1)
		}
	}
	return res, err
}

// Drain gracefully stops the whole fleet: no new sessions are admitted,
// and every open session is asked to park-and-exit at its next transaction
// barrier, with the manager's DrainTimeout (or the earlier ctx deadline)
// as the hard bound. It returns the first drain error, if any.
func (m *Manager) Drain(ctx context.Context) error {
	m.closed.Store(true)
	deadline := m.cfg.DrainTimeout
	dctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	m.mu.Lock()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Strings(ids)

	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			// Keep snapshots: each session's drain path flushed a final
			// one, and the next boot resumes the fleet from them.
			_, errs[i] = m.closeSession(dctx, id, false)
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
	}
	return nil
}

// RecoveryActive reports whether cold-start recovery is still running;
// /healthz answers 503 "recovering" while it is.
func (m *Manager) RecoveryActive() bool { return m.recovering.Load() }

// RecoveryStats snapshots recovery progress (zero value when the server
// runs without a data directory or recovery has not been started).
func (m *Manager) RecoveryStats() RecoveryStats {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	out := m.recovery
	out.Reasons = append([]string(nil), m.recovery.Reasons...)
	return out
}

func (m *Manager) setRecovery(mut func(*RecoveryStats)) {
	m.recMu.Lock()
	mut(&m.recovery)
	m.recMu.Unlock()
}

// Recover rebuilds the fleet from the snapshot store: every session found
// on disk is re-compiled from its recorded graph text (through the shared
// program cache), re-admitted against quota and slots, and resumed from
// its newest valid snapshot — torn or corrupt newer files are skipped and
// counted. Sessions that cannot be recovered (invalid graph, no slot,
// unreadable snapshots) are left on disk and reported in RecoveryStats.
// Synchronous; Server.Start runs it in the background and gates /healthz
// on completion. Safe to call when no store is configured (no-op).
func (m *Manager) Recover(ctx context.Context) RecoveryStats {
	if m.store == nil {
		return RecoveryStats{}
	}
	m.recovering.Store(true)
	defer m.recovering.Store(false)

	ids, err := m.store.IDs()
	if err != nil {
		m.setRecovery(func(r *RecoveryStats) {
			*r = RecoveryStats{Reasons: []string{"store scan: " + err.Error()}}
		})
		return m.RecoveryStats()
	}
	m.setRecovery(func(r *RecoveryStats) {
		*r = RecoveryStats{Active: true, Total: len(ids), Pending: len(ids)}
	})
	for _, id := range ids {
		if ctx.Err() != nil || m.closed.Load() {
			break
		}
		m.mu.Lock()
		_, open := m.sessions[id]
		m.mu.Unlock()
		if open {
			// A session admitted after boot already owns this directory
			// (its persister wrote a snapshot before recovery reached it).
			// It is live, not crashed — nothing to recover.
			m.setRecovery(func(r *RecoveryStats) { r.Pending--; r.Total-- })
			continue
		}
		err := m.recoverSession(id)
		m.setRecovery(func(r *RecoveryStats) {
			r.Pending--
			if err != nil {
				r.Failed++
				r.Reasons = append(r.Reasons, id+": "+err.Error())
			} else {
				r.Recovered++
			}
		})
		if err != nil {
			m.durable.recoveryFailed.Add(1)
		} else {
			m.durable.recovered.Add(1)
		}
	}
	m.setRecovery(func(r *RecoveryStats) { r.Active = false })
	return m.RecoveryStats()
}

// recoverSession re-opens one session from its newest valid snapshot:
// admission with the recorded ID, tenant and checkpoint. No ID bookkeeping
// here — seedNextID already pushed the counter past every on-disk session
// before the first Open could run.
func (m *Manager) recoverSession(id string) error {
	snap, err := m.store.Load(id)
	if err != nil {
		return err
	}
	m.durable.torn.Add(int64(snap.Discarded))
	g, err := snap.Graph()
	if err != nil {
		return fmt.Errorf("graph text: %w", err)
	}
	// Recovery never queues for a slot — a fleet already full at boot
	// leaves the session on disk — which admit reads off a done context.
	noWait, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = m.admit(noWait, id, snap.Tenant, g, snap.Checkpoint.Params, nil, snap.Checkpoint)
	return err
}

// AcquireBatch admits one batch (analyze/sweep) job against the bounded
// batch worker budget; the returned release must be called when the job
// ends. Saturation beyond AdmitWait is ErrBusy.
func (m *Manager) AcquireBatch(ctx context.Context) (func(), error) {
	if m.closed.Load() {
		return nil, ErrShuttingDown
	}
	select {
	case m.batch <- struct{}{}:
		m.batchJobs.Add(1)
		return func() { <-m.batch }, nil
	default:
	}
	t := time.NewTimer(max(m.cfg.AdmitWait, 0))
	defer t.Stop()
	select {
	case m.batch <- struct{}{}:
		m.batchJobs.Add(1)
		return func() { <-m.batch }, nil
	case <-t.C:
		m.batchRejected.Add(1)
		return nil, fmt.Errorf("%w: %d batch jobs in flight", ErrBusy, m.cfg.BatchWorkers)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stats snapshots the fleet.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	n := len(m.sessions)
	t := len(m.perTenant)
	var live int64
	for _, s := range m.sessions {
		live += s.Completed()
	}
	m.mu.Unlock()
	var dur *DurableStats
	var rec *RecoveryStats
	if m.store != nil {
		dur = m.durable.stats()
		r := m.RecoveryStats()
		rec = &r
	}
	return Stats{
		Sessions:       n,
		Tenants:        t,
		QueueDepth:     m.queued.Load(),
		Draining:       m.closed.Load(),
		Opened:         m.opened.Load(),
		Drained:        m.drained.Load(),
		Failed:         m.failed.Load(),
		RejectedBusy:   m.rejectedBusy.Load(),
		RejectedQuota:  m.rejectedQuota.Load(),
		RejectedGraph:  m.rejectedGraph.Load(),
		BatchJobs:      m.batchJobs.Load(),
		BatchRejected:  m.batchRejected.Load(),
		Cache:          m.cache.Stats(),
		IterationsLive: live,
		Panics:         m.fleet.panics.Load(),
		Restarts:       m.fleet.restarts.Load(),
		RebindAborts:   m.fleet.rebindAborts.Load(),
		Durable:        dur,
		Recovery:       rec,
	}
}
