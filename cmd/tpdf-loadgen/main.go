// Command tpdf-loadgen soaks a running tpdf-serve instance: it runs many
// session lifecycles (open → pump×N → close) at a configured concurrency,
// retries admission pushback (429/503) as backpressure, and reports
// per-endpoint latency percentiles plus throughput as JSON. Mid-run it
// scrapes GET /metrics and validates the Prometheus exposition; an
// unparsable exposition fails the run like a failed session does.
//
// Usage:
//
//	tpdf-loadgen -url http://127.0.0.1:8080 \
//	             [-sessions 100] [-concurrency 32] [-tenants 4] \
//	             [-pumps 8] [-iterations 16] [-builtin fig2 | -graph file.tpdf] \
//	             [-json out.json]
//
// Exit status is non-zero if any session failed or leaked.
//
// Crash-recovery harness (against a server started with -data-dir):
//
//	tpdf-loadgen -crash-record -state crash.json   # pump until killed
//	# ... kill -9 the server, restart it on the same -data-dir ...
//	tpdf-loadgen -crash-verify -state crash.json   # exit 0 iff no acked work lost
//
// The recorder journals every acked pump to the state file (atomically
// rewritten per ack) and exits 0 when the server dies under it; the
// verifier waits out recovery, asserts every acked iteration survived, and
// checks post-crash output is identical to an uninterrupted reference run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/tpdf/serve"
)

func run() error {
	url := flag.String("url", "http://127.0.0.1:8080", "server base URL")
	sessions := flag.Int("sessions", 100, "total session lifecycles to run")
	concurrency := flag.Int("concurrency", 32, "sessions in flight at once")
	tenants := flag.Int("tenants", 4, "tenant names to spread sessions over")
	pumps := flag.Int("pumps", 8, "pump requests per session")
	iterations := flag.Int64("iterations", 16, "graph iterations per pump")
	builtin := flag.String("builtin", "fig2", "built-in graph every session opens")
	graphFile := flag.String("graph", "", "open a .tpdf file instead of a builtin")
	jsonOut := flag.String("json", "", "write the report as JSON to this file (default stdout)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	chaos := flag.Bool("chaos", false, "inject seeded faults into every session (server must run -chaos); sessions must still complete via supervisor recovery")
	chaosSeed := flag.Int64("chaos-seed", 1, "base seed for per-session fault schedules (session i uses seed+i)")
	crashRecord := flag.Bool("crash-record", false, "crash harness: pump sessions and journal acks to -state until the server dies")
	crashVerify := flag.Bool("crash-verify", false, "crash harness: verify a restarted server against the -state journal")
	stateFile := flag.String("state", "crash-state.json", "crash harness state file")
	flag.Parse()

	spec := serve.GraphSpec{Builtin: *builtin}
	if *graphFile != "" {
		src, err := os.ReadFile(*graphFile)
		if err != nil {
			return err
		}
		spec = serve.GraphSpec{Source: string(src)}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if *crashRecord || *crashVerify {
		cc := serve.CrashConfig{
			BaseURL:    *url,
			StateFile:  *stateFile,
			Sessions:   *sessions,
			Tenants:    *tenants,
			Iterations: *iterations,
			Pumps:      *pumps,
			Graph:      spec,
			Timeout:    *timeout,
		}
		if *crashRecord {
			st, err := serve.RunCrashRecord(ctx, cc)
			if err != nil {
				return err
			}
			var acked int64
			for _, s := range st.Sessions {
				acked += s.Acked
			}
			fmt.Fprintf(os.Stderr, "tpdf-loadgen: recorded %d sessions, %d acked iterations to %s\n",
				len(st.Sessions), acked, *stateFile)
			return nil
		}
		rep, err := serve.RunCrashVerify(ctx, cc)
		if rep != nil {
			out, merr := json.MarshalIndent(rep, "", "  ")
			if merr != nil {
				return merr
			}
			os.Stdout.Write(append(out, '\n'))
		}
		if err != nil {
			return err
		}
		if !rep.Pass() {
			return fmt.Errorf("crash verify failed: %d/%d recovered, %d acked iterations lost, %d sink mismatches",
				rep.Recovered, rep.Sessions, rep.LostIterations, rep.SinkMismatches)
		}
		fmt.Fprintf(os.Stderr, "tpdf-loadgen: crash verify passed: %d/%d sessions recovered, 0 acked iterations lost (recovery wait %dms)\n",
			rep.Recovered, rep.Sessions, rep.HealthWaitMs)
		return nil
	}

	lc := serve.LoadConfig{
		BaseURL:     *url,
		Sessions:    *sessions,
		Concurrency: *concurrency,
		Tenants:     *tenants,
		Pumps:       *pumps,
		Iterations:  *iterations,
		Graph:       spec,
		Timeout:     *timeout,
	}
	if *chaos {
		lc.Chaos = &serve.ChaosSpec{Seed: *chaosSeed, Panics: 1, Delays: 1, RebindAborts: 1}
	}
	rep, err := serve.RunLoad(ctx, lc)
	if rep != nil {
		out, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			return merr
		}
		out = append(out, '\n')
		if *jsonOut != "" {
			if werr := os.WriteFile(*jsonOut, out, 0o644); werr != nil {
				return werr
			}
		} else {
			os.Stdout.Write(out)
		}
		fmt.Fprintf(os.Stderr,
			"tpdf-loadgen: %d sessions (%.1f/sec), %d failed, %d leaked, pump p50=%s p99=%s, metrics %d series (valid=%v)\n",
			rep.Sessions, rep.SessionsPerSec, rep.Failed, rep.Leaked,
			time.Duration(rep.Pump.P50), time.Duration(rep.Pump.P99),
			rep.MetricsSeries, rep.MetricsValid)
		if *chaos {
			fmt.Fprintf(os.Stderr,
				"tpdf-loadgen: chaos: %d panics recovered via %d restarts, %d rebind aborts\n",
				rep.Panics, rep.Restarts, rep.RebindAborts)
		}
	}
	if err != nil {
		return err
	}
	if rep.Failed > 0 || rep.Leaked > 0 {
		return fmt.Errorf("%d failed sessions, %d leaked sessions", rep.Failed, rep.Leaked)
	}
	if !rep.MetricsValid {
		return fmt.Errorf("/metrics exposition did not validate")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tpdf-loadgen:", err)
		os.Exit(1)
	}
}
