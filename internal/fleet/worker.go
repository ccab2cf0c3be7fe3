package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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
	// Spooled counts records written to the local spool because the
	// coordinator was unreachable; Replayed counts spooled records later
	// delivered.
	Spooled, Replayed int
	// Rejected counts completions the coordinator refused (unknown key —
	// e.g. it was restarted with a different sweep).
	Rejected int
	// Reconnects counts degraded→healthy transitions.
	Reconnects int
}

// Worker pulls leased trials from a coordinator and executes them through
// the grid runner's per-trial path (panic recovery, watchdog, bounded retry
// with cancellable jittered backoff). It is a grid.Source whose Next is an
// HTTP lease and whose Complete is an HTTP completion with a local JSONL
// spool as the fallback: a worker that loses the coordinator finishes its
// leased trial, spools the record, and replays the spool on reconnect —
// losing nothing — while its expired lease lets the rest of the fleet make
// progress (at worst duplicating work the dedupe then discards).
type Worker struct {
	// Client is the RPC client; required (its Base addresses the
	// coordinator).
	Client *Client
	// Runner supplies the per-trial execution policy (Retries, Backoff,
	// OnProgress). Its Store is ignored — the coordinator owns persistence.
	// Nil means a zero Runner (no retries).
	Runner *grid.Runner
	// Name identifies this worker in claims and logs; "" means
	// "host:pid".
	Name string
	// SpoolPath is the local JSONL file for records that could not be
	// delivered; "" disables spooling (undeliverable records are dropped —
	// the lease expiry will re-issue the trial elsewhere).
	SpoolPath string
	// RenewEvery is the lease-renewal period while a trial runs; <= 0
	// derives it from the lease expiry (a third of the remaining TTL).
	RenewEvery time.Duration
	// Capacity is the thread capacity this worker advertises in lease
	// requests, steering cost-aware placement: the coordinator grants it
	// the costliest trial whose Threads fit. 0 means GOMAXPROCS; negative
	// means unlimited (accept anything).
	Capacity int
	// LeaseBatch, when > 1, asks the coordinator for up to LeaseBatch
	// trials per lease RPC; extra grants queue locally and are run before
	// the next round-trip. Amortizes lease latency over cheap trials.
	LeaseBatch int
	// Logf, when set, receives one line per worker event.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	stats    WorkerStats
	degraded bool

	lease    LeaseResponse  // current lease (source state between Next and Complete)
	queued   []Grant        // batch grants not yet started, run FIFO before the next lease RPC
	next     *LeaseResponse // lease answer that rode on the last completion, not yet consumed
	renewing chan struct{}  // closed to stop the current lease's renewal loop
	doneHint bool           // a completion response said the sweep is over
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
// an error — the worker degrades, spools, reconnects, and keeps going; only
// cancellation and protocol-level impossibilities end the run early.
func (w *Worker) Run(ctx context.Context) (WorkerStats, error) {
	r := w.Runner
	if r == nil {
		r = &grid.Runner{}
	}
	err := r.Drain(ctx, (*workerSource)(w))
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

// Next leases the next trial: a grant already in hand first (queued from a
// batch, or the lease answer that rode on the last completion); otherwise
// replay any spool (the reconnect contract), then poll the coordinator
// through wait states and outages until a lease, done, or cancellation.
func (s *workerSource) Next(ctx context.Context) (bench.WorkloadConfig, bool, error) {
	w := (*Worker)(s)
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
		switch {
		case len(w.queued) > 0:
			// Run down the local batch queue before another lease RPC. A
			// queued grant's lease may be old; that is survivable — renewal
			// keeps it alive from here, and even a server-side expiry only
			// costs a duplicate the dedupe absorbs.
			g := w.queued[0]
			w.queued = w.queued[1:]
			resp = LeaseResponse{
				Status: StatusLease, LeaseID: g.LeaseID, Key: g.Key,
				Config: g.Config, ExpiresUnixNano: g.ExpiresUnixNano,
			}
		case w.next != nil:
			resp, w.next = *w.next, nil
		default:
			if w.replaySpool(ctx) {
				// Spool fully drained (or empty): the link is healthy.
				w.healed(reconnect)
			}
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
				// journals its state and is built to come back.
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
			w.lease = resp
			w.queued = append(w.queued, resp.Extra...)
			w.startRenewal(ctx)
			if w.Logf != nil { // per trial: skip building the label when quiet
				w.Logf("fleet-worker %s: leased %s (%s), %d queued", w.name(),
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
	return &LeaseRequest{Worker: w.name(), Capacity: capacity, MaxTrials: w.LeaseBatch}
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

// Complete reports the finished trial, spooling on coordinator loss.
func (s *workerSource) Complete(ctx context.Context, cfg bench.WorkloadConfig, rec results.Record) error {
	w := (*Worker)(s)
	w.stopRenewal()
	lease := w.lease
	w.lease = LeaseResponse{}
	if err := ctx.Err(); err != nil {
		// Cancellation is a stop order, not an outage: drop the record (the
		// lease will expire and the trial will be re-issued) and unwind.
		return err
	}
	w.mu.Lock()
	if rec.Quarantined {
		w.stats.Quarantined++
	} else {
		w.stats.Executed++
	}
	w.mu.Unlock()
	req := CompleteRequest{LeaseID: lease.LeaseID, Worker: w.name(), Key: lease.Key, Record: rec}
	if len(w.queued) == 0 {
		// Nothing queued locally, so the next thing this worker does is ask
		// for a lease: let the ask ride on the completion.
		req.Next = w.leaseRequest()
	}
	resp, err := w.Client.Complete(ctx, req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !IsRPCError(err) {
			return err
		}
		w.degrade(err)
		w.spool(rec, lease.Key)
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
	w.next = resp.Next // nil from a spool replay, which runs only once next is consumed
	w.mu.Lock()
	defer w.mu.Unlock()
	if !resp.Accepted {
		w.stats.Rejected++
	} else if resp.Duplicate {
		w.stats.Duplicates++
	}
}

// degrade notes a lost coordinator (once per outage).
func (w *Worker) degrade(err error) {
	w.mu.Lock()
	first := !w.degraded
	w.degraded = true
	w.mu.Unlock()
	if first {
		w.logf("fleet-worker %s: coordinator unreachable (%v); degrading — will spool and reconnect", w.name(), err)
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

// startRenewal keeps the current lease alive while the trial runs, renewing
// every RenewEvery until stopRenewal or ctx ends. Renewal failures are
// survivable by design (dedupe absorbs a re-issued trial), so errors are
// logged and otherwise ignored.
func (w *Worker) startRenewal(ctx context.Context) {
	every := w.RenewEvery
	if every <= 0 {
		every = time.Until(time.Unix(0, w.lease.ExpiresUnixNano)) / 3
	}
	if every <= 0 {
		every = 5 * time.Second
	}
	leaseID := w.lease.LeaseID
	stop := make(chan struct{})
	w.renewing = stop
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
			}
			resp, err := w.Client.Renew(ctx, RenewRequest{LeaseID: leaseID, Worker: w.name()})
			if err != nil {
				w.logf("fleet-worker %s: renew %s failed: %v", w.name(), leaseID, err)
			} else if !resp.OK {
				w.logf("fleet-worker %s: lease %s expired server-side; finishing anyway (dedupe)", w.name(), leaseID)
			}
		}
	}()
}

func (w *Worker) stopRenewal() {
	if w.renewing != nil {
		close(w.renewing)
		w.renewing = nil
	}
}

// spool appends an undeliverable record to the local JSONL spool. Same
// crash-safety contract as the store: O_APPEND, one line per write.
func (w *Worker) spool(rec results.Record, key string) {
	if w.SpoolPath == "" {
		w.logf("fleet-worker %s: no spool configured; dropping record %s (lease expiry will re-issue)",
			w.name(), short(key))
		return
	}
	f, err := os.OpenFile(w.SpoolPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.logf("fleet-worker %s: opening spool: %v", w.name(), err)
		return
	}
	defer f.Close()
	b, err := json.Marshal(rec)
	if err != nil {
		w.logf("fleet-worker %s: encoding spool record: %v", w.name(), err)
		return
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		w.logf("fleet-worker %s: writing spool: %v", w.name(), err)
		return
	}
	w.mu.Lock()
	w.stats.Spooled++
	w.mu.Unlock()
	w.logf("fleet-worker %s: spooled %s to %s", w.name(), short(key), w.SpoolPath)
}

// replaySpool re-delivers spooled records, rewriting the spool with whatever
// still cannot be delivered. Returns true when the spool is empty afterward
// (including the trivially-empty case). Duplicate acknowledgements are
// normal: the trial may have been re-issued and completed elsewhere while
// this worker was partitioned.
func (w *Worker) replaySpool(ctx context.Context) bool {
	if w.SpoolPath == "" {
		return true
	}
	data, err := os.ReadFile(w.SpoolPath)
	if err != nil || len(data) == 0 {
		return true
	}
	var recs []results.Record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec results.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn spool line (killed mid-write): the record was never acknowledged anywhere; drop
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		os.Remove(w.SpoolPath)
		return true
	}
	var remaining []results.Record
	for i, rec := range recs {
		if ctx.Err() != nil {
			remaining = append(remaining, recs[i:]...)
			break
		}
		resp, err := w.Client.Complete(ctx, CompleteRequest{
			Worker: w.name(), Key: rec.Key, Record: rec,
		})
		if err != nil {
			remaining = append(remaining, recs[i:]...)
			break
		}
		w.acknowledge(resp)
		w.mu.Lock()
		w.stats.Replayed++
		w.mu.Unlock()
		w.logf("fleet-worker %s: replayed spooled %s", w.name(), short(rec.Key))
	}
	if len(remaining) == 0 {
		os.Remove(w.SpoolPath)
		return true
	}
	// Rewrite the spool to only the undelivered tail. A crash between
	// delivery and this rewrite re-replays a delivered record later — which
	// dedupes — so the spool never loses a record, only occasionally repeats
	// one. (Write-then-rename would be atomic but gains nothing over that
	// guarantee here.)
	f, err := os.Create(w.SpoolPath)
	if err != nil {
		return false
	}
	defer f.Close()
	for _, rec := range remaining {
		b, err := json.Marshal(rec)
		if err != nil {
			continue
		}
		f.Write(append(b, '\n'))
	}
	return false
}

// short truncates a key for logs.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
