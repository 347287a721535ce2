// Command tpdf-serve hosts the multi-tenant streaming + analysis service:
// a fleet of persistent streaming engines (one session per client, sessions
// of the same graph sharing one compiled program) behind a small REST API,
// plus batch analyze/sweep endpoints coalesced onto a bounded worker
// budget. Admission control — bounded session slots, per-tenant quotas, a
// bounded admission queue — turns saturation into HTTP 429 instead of
// memory growth.
//
// Usage:
//
//	tpdf-serve [-addr host:port] [-admin host:port] [-max-sessions n]
//	           [-max-per-tenant n] [-admit-wait d] [-drain-timeout d]
//	           [-batch-workers n] [-data-dir dir] [-keep-snapshots k]
//
// -data-dir makes sessions durable: every session's state is snapshotted
// to <dir>/<session>/ at the boundary that ends each pump, synchronously
// before the pump request is acknowledged, so an acked pump always
// survives a crash, and the newest -keep-snapshots files are retained per
// session. On restart with the same
// directory the fleet is rebuilt from disk: each session's graph is
// recompiled from its recorded text and resumed at its newest valid
// snapshot — torn or corrupt files from a mid-write crash are detected by
// checksum and skipped. /healthz answers 503 "recovering" until recovery
// completes; /v1/stats reports its progress and /metrics carries the
// tpdf_durable_* families. Sessions closed by the client delete their
// snapshots; a drain keeps them for the next boot.
//
// GET /metrics serves the fleet and per-session engine counters in
// Prometheus text exposition; GET /healthz answers 503 "draining" once
// shutdown begins so load balancers stop routing here. -admin opts into a
// second listener carrying net/http/pprof and a /metrics copy — keep it on
// a loopback or private address, the profiling endpoints are not for the
// public port.
//
// A session lives across requests; parameters change only at transaction
// (iteration) boundaries, per the TPDF transaction rule:
//
//	# open a session of the built-in Fig. 2 graph
//	curl -s -X POST localhost:8080/v1/sessions \
//	     -d '{"tenant":"acme","graph":{"builtin":"fig2"}}'
//	# → {"id":"s1","tenant":"acme","graph":"fig2"}
//
//	# run 100 iterations, raising p to 4 at the opening boundary
//	curl -s -X POST localhost:8080/v1/sessions/s1/pump \
//	     -d '{"iterations":100,"params":{"p":4}}'
//
//	# analyze a graph (shares the compiled-program cache with sessions)
//	curl -s -X POST localhost:8080/v1/analyze -d '{"graph":{"builtin":"ofdm"}}'
//
//	# drain the session: stops at the next barrier, returns final firings
//	curl -s -X DELETE localhost:8080/v1/sessions/s1
//
// On SIGTERM or SIGINT the server drains gracefully: no new admissions,
// every session parks and exits at its next transaction barrier, bounded
// by -drain-timeout (stragglers are then cancelled).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/tpdf/serve"
)

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	adminAddr := flag.String("admin", "", "admin listener (pprof + /metrics); empty disables")
	maxSessions := flag.Int("max-sessions", 256, "max concurrently open sessions")
	maxPerTenant := flag.Int("max-per-tenant", 0, "max sessions per tenant (0: same as -max-sessions)")
	admitWait := flag.Duration("admit-wait", 100*time.Millisecond, "how long an opener may queue for a session slot")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown bound before sessions are cancelled")
	batchWorkers := flag.Int("batch-workers", 2, "concurrent analyze/sweep jobs")
	sweepPar := flag.Int("sweep-parallelism", 0, "worker-pool width per sweep request (0: sequential)")
	maxPrograms := flag.Int("max-programs", 1024, "distinct graphs the program cache may hold")
	maxRestarts := flag.Int("max-restarts", 3, "engine restarts per session after behavior panics (negative disables recovery)")
	chaos := flag.Bool("chaos", false, "accept seeded fault-injection specs at session open (testing only)")
	dataDir := flag.String("data-dir", "", "durable snapshot directory; empty disables persistence")
	keepSnapshots := flag.Int("keep-snapshots", 3, "newest snapshots retained per session")
	flag.Parse()

	srv := serve.New(serve.Config{
		MaxSessions:          *maxSessions,
		MaxSessionsPerTenant: *maxPerTenant,
		AdmitWait:            *admitWait,
		DrainTimeout:         *drainTimeout,
		BatchWorkers:         *batchWorkers,
		SweepParallelism:     *sweepPar,
		MaxPrograms:          *maxPrograms,
		MaxRestarts:          *maxRestarts,
		EnableChaos:          *chaos,
		DataDir:              *dataDir,
		KeepSnapshots:        *keepSnapshots,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tpdf-serve: listening on %s (%d session slots)\n", bound, *maxSessions)
	if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "tpdf-serve: durable sessions in %s (keep %d)\n",
			*dataDir, *keepSnapshots)
	}
	if *adminAddr != "" {
		abound, err := srv.StartAdmin(*adminAddr)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "tpdf-serve: admin (pprof, /metrics) on %s\n", abound)
	}

	<-ctx.Done()
	stop() // a second signal kills immediately
	fmt.Fprintln(os.Stderr, "tpdf-serve: draining sessions at transaction barriers...")
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "tpdf-serve: drained")
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tpdf-serve:", err)
		os.Exit(1)
	}
}
