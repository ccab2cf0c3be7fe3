package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/grid"
)

// Distributed sweeps: `epochgrid -serve :PORT` turns the process into the
// sweep's coordinator (it owns the store and hands trials out under leases);
// `epochgrid -worker URL` turns it into a worker (it pulls leases, runs
// trials through the same per-trial path as a local sweep, and streams
// records back). Both sides survive the other dying: see internal/fleet.

// drainGrace is how long the coordinator keeps serving after the sweep
// completes, so idle workers polling for leases hear "done" instead of a
// connection error and exit cleanly.
const drainGrace = 2 * time.Second

// runServe drives a sweep as its coordinator: expand the spec, resume from
// the store, serve leases until every trial is done, then emit the same
// summaries (and greppable grid line) a single-process sweep would. When no
// worker leases anything within localGrace, the process degrades to local
// mode — it becomes its own worker, against its own listener — so a -serve
// invocation with no fleet still finishes (late workers can still join; both
// sides lease from the same queue).
func runServe(addr string, spec grid.Spec, storePath string, leaseTTL, deadline, localGrace time.Duration,
	retries int, backoff time.Duration, format string, out io.Writer, progress bool) int {
	if storePath == "" {
		fmt.Fprintln(os.Stderr, "epochgrid: -serve requires -store (the journal is what makes the coordinator crash-safe)")
		return 2
	}
	st, err := openStore(storePath, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}
	defer st.Close()

	trials := spec.Trials
	if trials <= 0 {
		trials = 1
	}
	cc := fleet.CoordinatorConfig{Store: st, LeaseTTL: leaseTTL, Deadline: deadline}
	if progress {
		cc.Logf = func(f string, args ...any) { fmt.Fprintf(os.Stderr, f+"\n", args...) }
	}
	coord, err := fleet.NewCoordinator(spec.Expand(), trials, cc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "fleet: coordinating on %s (store %s, lease ttl %v)\n",
		ln.Addr(), storePath, leaseTTL)

	t0 := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if localGrace > 0 {
		// Degraded-local mode: if the grace window passes with zero leases
		// granted, no worker is coming — run one in this process. It is a
		// worker like any other (claims journaled, dedupe by key, stats under
		// its name), so one joining mid-drain just shares the remaining
		// trials. It spools nothing, its coordinator cannot go away without
		// it, and takes any trial: there is no bigger worker to wait for.
		go func() {
			t := time.NewTimer(localGrace)
			defer t.Stop()
			select {
			case <-t.C:
			case <-coord.Done():
				return
			case <-ctx.Done():
				return
			}
			if coord.Granted() > 0 {
				return
			}
			fmt.Fprintf(os.Stderr, "fleet: no worker leased within %v; draining locally\n", localGrace)
			local := newWorker("http://"+ln.Addr().String(), retries, backoff, "local", "none", -1)
			if _, err := local.Run(ctx); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "fleet: local drain: %v\n", err)
			}
		}()
	}
	select {
	case <-coord.Done():
	case <-ctx.Done():
		// Interrupted mid-sweep: shut down without emitting. Everything
		// completed so far is journaled; a restarted -serve resumes from it.
		srv.Close()
		fmt.Fprintln(os.Stderr, "fleet: interrupted; sweep state journaled, re-run -serve to resume")
		return 1
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "epochgrid: serve: %v\n", err)
		return 1
	}
	// Keep serving for the drain grace so idle workers' next lease poll
	// hears "done" (shutting down immediately would close the listener and
	// strand them in their reconnect loops), then close.
	time.Sleep(drainGrace)
	_ = srv.Close()

	status := coord.Status()
	sums := coord.Summaries()
	if err := emit(out, format, sums, status.Executed, status.Cached); err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}
	code := closeSweep(len(sums), status.Total, status.Executed, status.Cached, status.Quarantined, t0)
	fmt.Fprintf(os.Stderr, "fleet: leases reissued=%d duplicate completions=%d completion rpcs=%d\n",
		status.Reissued, status.Duplicates, status.Completions)
	return code
}

// newWorker assembles a worker for the coordinator at base from the -worker
// flags' values.
func newWorker(base string, retries int, backoff time.Duration, name, spoolFlag string, capacity int) *fleet.Worker {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	spool := spoolFlag
	switch spool {
	case "":
		spool = filepath.Join(os.TempDir(),
			fmt.Sprintf("epochgrid-spool-%s.jsonl", sanitize(name)))
	case "none":
		spool = ""
	}
	return &fleet.Worker{
		Client: &fleet.Client{
			Base: base, Timeout: 10 * time.Second, Retries: -1,
			RetryBase: backoff, Seed: seedFor(name),
		},
		Runner:    &grid.Runner{Retries: retries, Backoff: backoff},
		Name:      name,
		SpoolPath: spool,
		Capacity:  capacity,
	}
}

// runWorker drains a coordinator until its sweep is done. SIGINT/SIGTERM
// cancel cleanly: the leases in hand simply expire and are re-issued
// elsewhere. SIGKILL needs no handling — that is the lease's whole job.
func runWorker(base string, retries int, backoff time.Duration, name, spoolFlag string,
	capacity int, progress bool) int {
	w := newWorker(base, retries, backoff, name, spoolFlag, capacity)
	name = w.Name
	if progress {
		w.Logf = func(f string, args ...any) { fmt.Fprintf(os.Stderr, f+"\n", args...) }
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stats, err := w.Run(ctx)
	fmt.Fprintf(os.Stderr, "fleet-worker %s: executed=%d quarantined=%d duplicates=%d rejected=%d spooled=%d replayed=%d reconnects=%d\n",
		name, stats.Executed, stats.Quarantined, stats.Duplicates, stats.Rejected,
		stats.Spooled, stats.Replayed, stats.Reconnects)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: worker: %v\n", err)
		return 1
	}
	if stats.Quarantined > 0 {
		return 3
	}
	return 0
}

// seedFor decorrelates a worker's RPC jitter from its peers' by name and
// pid, so a fleet launched from one script never retries in lockstep.
func seedFor(name string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", name, os.Getpid())
	return h.Sum64()
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
