package fleet

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
)

// WorkerStats is what one worker did over a Run.
type WorkerStats struct {
	// Executed and Quarantined count trials this worker ran (successful /
	// permanently failed).
	Executed, Quarantined int
	// Duplicates counts completions the coordinator discarded by dedupe
	// (this worker lost a lease race — the work was wasted but harmless).
	Duplicates int
	// Rejected counts completions the coordinator refused (unknown key —
	// e.g. it was restarted with a different sweep).
	Rejected int
	// Reconnects counts degraded→healthy transitions.
	Reconnects int
}

// Worker pulls leased trials from a coordinator and executes them through
// the grid runner's per-trial path (panic recovery, watchdog, bounded retry
// with cancellable jittered backoff). It is a grid.Source whose Next is an
// HTTP lease — of a chunk of trials, sized by the coordinator, run in grant
// order — and whose Complete holds each finished record until the chunk has
// run and then reports them all in one HTTP completion. A worker that cannot
// deliver a chunk, or is killed mid-chunk, loses the chunk's finished
// records: at most the coordinator's quantum of work, re-issued when the
// leases expire. A worker that loses the coordinator keeps polling for it.
type Worker struct {
	// Client is the RPC client; required (its Base addresses the
	// coordinator).
	Client *Client
	// Runner supplies the per-trial execution policy (Retries, Backoff,
	// OnProgress). Its Store is ignored — the coordinator owns persistence.
	// Nil means a zero Runner (no retries).
	Runner *grid.Runner
	// Name identifies this worker to the coordinator and in logs; ""
	// means "host:pid".
	Name string
	// RenewEvery is the lease-renewal period; <= 0 means a third of the TTL
	// the coordinator states with its first lease.
	RenewEvery time.Duration
	// Capacity is the thread capacity this worker advertises in lease
	// requests, steering cost-aware placement: the coordinator grants it
	// the costliest trial whose Threads fit. 0 means GOMAXPROCS; negative
	// means unlimited (accept anything).
	Capacity int
	// Logf, when set, receives one line per worker event.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	stats    WorkerStats
	degraded bool
	holding  []string // lease ids of the chunk in hand — running, queued, held — for the renewal loop

	lease    Grant          // the grant being run (source state between Next and Complete)
	queued   []Grant        // the chunk's grants not yet started, run in order before the next lease
	held     []Completion   // the chunk's finished records, reported together when queued runs out
	next     *LeaseResponse // lease answer that rode on the last completion, not yet consumed
	doneHint bool           // a completion response said the sweep is over

	stopRenewing context.CancelFunc // ends the renewal loop; nil until a first lease starts it
	renewDone    chan struct{}      // closed by the renewal loop on its way out
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) name() string {
	if w.Name != "" {
		return w.Name
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// Run drains the coordinator until the sweep is done or ctx is canceled,
// returning what this worker accomplished. Transport loss mid-sweep is not
// an error — the worker degrades, reconnects, and keeps going; only
// cancellation and protocol-level impossibilities end the run early.
func (w *Worker) Run(ctx context.Context) (WorkerStats, error) {
	r := w.Runner
	if r == nil {
		r = &grid.Runner{}
	}
	err := r.Drain(ctx, (*workerSource)(w))
	if w.stopRenewing != nil {
		w.stopRenewing()
		<-w.renewDone
		w.stopRenewing = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats, err
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// workerSource adapts Worker to grid.Source. Methods run serially from one
// Drain loop; the mutex only guards the stats against concurrent Stats()
// readers.
type workerSource Worker

// Next leases the next trial: the chunk in hand first; then the lease answer
// that rode on the last completion; otherwise poll the coordinator through
// wait states and outages until a lease, done, or cancellation.
func (s *workerSource) Next(ctx context.Context) (bench.WorkloadConfig, bool, error) {
	w := (*Worker)(s)
	if len(w.queued) > 0 {
		// Its lease may be old by now; the renewal loop has kept it alive, and
		// even a server-side expiry only costs a duplicate the dedupe absorbs.
		w.lease, w.queued = w.queued[0], w.queued[1:]
		return w.lease.Config, true, nil
	}
	reconnect := grid.NewBackoff(250*time.Millisecond, w.Client.Seed^0xf1eed)
	for {
		if err := ctx.Err(); err != nil {
			return bench.WorkloadConfig{}, false, err
		}
		if w.doneHint {
			// A completion response already said the sweep is over — exit
			// without another round trip (the coordinator may be gone by now).
			return bench.WorkloadConfig{}, false, nil
		}
		var resp LeaseResponse
		if w.next != nil {
			resp, w.next = *w.next, nil
		} else {
			var err error
			resp, err = w.Client.Lease(ctx, *w.leaseRequest())
			if err != nil {
				if ctx.Err() != nil {
					return bench.WorkloadConfig{}, false, ctx.Err()
				}
				if !IsRPCError(err) {
					return bench.WorkloadConfig{}, false, err
				}
				// Coordinator unreachable: degraded mode. Keep trying — it
				// resumes from its store and is built to come back.
				w.degrade(err)
				if err := reconnect.Sleep(ctx); err != nil {
					return bench.WorkloadConfig{}, false, err
				}
				continue
			}
			w.healed(reconnect)
		}
		switch resp.Status {
		case StatusDone:
			return bench.WorkloadConfig{}, false, nil
		case StatusWait:
			if err := sleepRetry(ctx, resp.RetryMs); err != nil {
				return bench.WorkloadConfig{}, false, err
			}
			continue
		case StatusLease:
			w.lease = Grant{LeaseID: resp.LeaseID, Key: resp.Key, Config: resp.Config, ExpiresUnixNano: resp.ExpiresUnixNano}
			w.queued = resp.Extra
			w.held = make([]Completion, 0, 1+len(resp.Extra))
			w.hold(ctx, resp)
			if w.Logf != nil { // per chunk: skip building the label when quiet
				w.Logf("fleet-worker %s: leased %s (%s) and %d more", w.name(),
					results.Label(resp.Config), short(resp.Key), len(w.queued))
			}
			return resp.Config, true, nil
		default:
			return bench.WorkloadConfig{}, false, fmt.Errorf("fleet: unknown lease status %q", resp.Status)
		}
	}
}

// leaseRequest is what this worker asks of the lease policy, on /v1/lease
// and riding on a completion alike.
func (w *Worker) leaseRequest() *LeaseRequest {
	capacity := w.Capacity
	if capacity == 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &LeaseRequest{Worker: w.name(), Capacity: capacity, MaxTrials: maxChunkTrials}
}

// sleepRetry waits out a StatusWait answer (ms <= 0 means 100 ms) or ctx.
func sleepRetry(ctx context.Context, ms int) error {
	retry := time.Duration(ms) * time.Millisecond
	if retry <= 0 {
		retry = 100 * time.Millisecond
	}
	t := time.NewTimer(retry)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Complete holds the finished trial's record while the chunk still has
// trials to run, and with the chunk's last one reports them all — one
// completion, carrying the next lease request — dropping them on coordinator
// loss, for the leases' expiry to re-issue.
func (s *workerSource) Complete(ctx context.Context, cfg bench.WorkloadConfig, rec results.Record) error {
	w := (*Worker)(s)
	if err := ctx.Err(); err != nil {
		// Cancellation is a stop order, not an outage: drop the chunk's
		// records (the leases will expire and the trials will be re-issued)
		// and unwind.
		w.held = nil
		w.release()
		return err
	}
	w.mu.Lock()
	if rec.Quarantined {
		w.stats.Quarantined++
	} else {
		w.stats.Executed++
	}
	w.mu.Unlock()
	w.held = append(w.held, Completion{LeaseID: w.lease.LeaseID, Key: w.lease.Key, Record: rec})
	if len(w.queued) > 0 {
		return nil
	}
	held := w.held
	w.held = nil
	w.release() // finished work needs no lease: a re-issue from here on only dedupes
	// The first record in the flat fields, the rest in More.
	resp, err := w.Client.Complete(ctx, CompleteRequest{
		LeaseID: held[0].LeaseID, Worker: w.name(), Key: held[0].Key, Record: held[0].Record,
		More: held[1:], Next: w.leaseRequest(),
	})
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !IsRPCError(err) {
			return err
		}
		w.degrade(err)
		w.logf("fleet-worker %s: dropping %d records from %s on (lease expiry will re-issue)",
			w.name(), len(held), short(held[0].Key))
		return nil
	}
	w.acknowledge(resp)
	return nil
}

// acknowledge folds a completion response into the stats and keeps the
// lease answer it may carry for Next.
func (w *Worker) acknowledge(resp CompleteResponse) {
	if resp.Done {
		w.doneHint = true
	}
	w.next = resp.Next
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ack := range append([]CompleteAck{{Accepted: resp.Accepted, Duplicate: resp.Duplicate}}, resp.More...) {
		if !ack.Accepted {
			w.stats.Rejected++
		} else if ack.Duplicate {
			w.stats.Duplicates++
		}
	}
}

// degrade notes a lost coordinator (once per outage).
func (w *Worker) degrade(err error) {
	w.mu.Lock()
	first := !w.degraded
	w.degraded = true
	w.mu.Unlock()
	if first {
		w.logf("fleet-worker %s: coordinator unreachable (%v); degrading — will reconnect", w.name(), err)
	}
}

// healed notes a recovered coordinator and resets the reconnect backoff.
func (w *Worker) healed(reconnect *grid.Backoff) {
	w.mu.Lock()
	was := w.degraded
	w.degraded = false
	if was {
		w.stats.Reconnects++
	}
	w.mu.Unlock()
	if was {
		reconnect.Reset()
		w.logf("fleet-worker %s: coordinator back; reconnected", w.name())
	}
}

// hold makes the chunk a lease answer granted what the renewal loop keeps
// alive, and starts that loop with the worker's first lease: only then is
// the coordinator's TTL known.
func (w *Worker) hold(ctx context.Context, resp LeaseResponse) {
	ids := make([]string, 1, 1+len(resp.Extra))
	ids[0] = resp.LeaseID
	for _, g := range resp.Extra {
		ids = append(ids, g.LeaseID)
	}
	w.mu.Lock()
	w.holding = ids
	w.mu.Unlock()
	if w.stopRenewing != nil {
		return
	}
	every := w.RenewEvery
	if every <= 0 {
		every = time.Duration(resp.TTLMs) * time.Millisecond / 3
	}
	if every <= 0 {
		every = 5 * time.Second // a coordinator that does not state its TTL
	}
	ctx, w.stopRenewing = context.WithCancel(ctx)
	w.renewDone = make(chan struct{})
	go w.renewLoop(ctx, every)
}

// release ends the renewal of the chunk in hand.
func (w *Worker) release() {
	w.mu.Lock()
	w.holding = nil
	w.mu.Unlock()
}

// renewLoop is the worker's one renewal loop, for the length of a Run: every
// tick it renews, in one RPC, every grant the worker holds — the running
// trial's, the queued ones behind it however long it runs, and the finished
// ones waiting to be reported. Renewal failures are survivable by design
// (dedupe absorbs a re-issued trial), so errors are logged and otherwise
// ignored.
func (w *Worker) renewLoop(ctx context.Context, every time.Duration) {
	defer close(w.renewDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		w.mu.Lock()
		ids := w.holding // replaced, never written to
		w.mu.Unlock()
		if len(ids) == 0 {
			continue
		}
		resp, err := w.Client.Renew(ctx, RenewRequest{LeaseID: ids[0], More: ids[1:], Worker: w.name()})
		if err != nil {
			w.logf("fleet-worker %s: renewing %d leases failed: %v", w.name(), len(ids), err)
		} else if !resp.OK {
			w.logf("fleet-worker %s: a lease of %v expired server-side; finishing anyway (dedupe)", w.name(), ids)
		}
	}
}

// short truncates a key for logs.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
