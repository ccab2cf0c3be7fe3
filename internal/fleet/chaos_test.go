package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/results"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestChaosFleetConverges is the headline robustness test: two workers behind
// seeded fault transports (dropped, duplicated, and delayed RPCs), one of
// them killed mid-sweep, against a short-TTL coordinator — and the sweep
// still converges to the exact record set a clean single-process run
// produces: every trial done, one record per key, nothing lost.
func TestChaosFleetConverges(t *testing.T) {
	cfgs := tinyCfgs(3)
	const trials = 2

	soloStore := results.NewMemStore()
	if _, err := (&grid.Runner{Store: soloStore}).Run(cfgs, trials); err != nil {
		t.Fatal(err)
	}

	fleetStore := results.NewMemStore()
	coord, err := NewCoordinator(cfgs, trials, CoordinatorConfig{
		Store: fleetStore, LeaseTTL: 300 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	newChaosWorker := func(name string, seed uint64) *Worker {
		ft := NewFaultTransport(srv.Client().Transport, seed)
		ft.DropP, ft.DupP, ft.DelayP = 0.15, 0.15, 0.15
		ft.Delay = time.Millisecond
		return &Worker{
			Client: &Client{Base: srv.URL, HTTP: &http.Client{Transport: ft},
				Timeout: 5 * time.Second, Retries: 10, RetryBase: time.Millisecond, Seed: seed},
			Runner:    &grid.Runner{},
			Name:      name,
			SpoolPath: filepath.Join(t.TempDir(), name+".spool.jsonl"),
		}
	}

	// The victim worker is "killed" (context canceled — the in-process stand-
	// in for kill -9; the CI smoke script does it with a real SIGKILL) as soon
	// as it holds a lease. Its trial must be re-issued and finished by the
	// survivor.
	victimCtx, kill := context.WithCancel(ctx)
	victim := newChaosWorker("victim", 1)
	var victimDone sync.WaitGroup
	victimDone.Add(1)
	go func() {
		defer victimDone.Done()
		victim.Run(victimCtx)
	}()
	waitFor(t, 30*time.Second, "victim to hold a lease", func() bool {
		return coord.Status().Leased > 0
	})
	kill()
	victimDone.Wait()

	survivor := newChaosWorker("survivor", 2)
	stats, err := survivor.Run(ctx)
	if err != nil {
		t.Fatalf("survivor: %v (stats %+v, status %+v)", err, stats, coord.Status())
	}

	st := coord.Status()
	if !st.Complete {
		t.Fatalf("sweep did not converge: %+v", st)
	}
	if got, want := sortedKeys(fleetStore), sortedKeys(soloStore); !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos sweep diverged from single-process result set:\n got %v\nwant %v", got, want)
	}
	for _, k := range fleetStore.Keys() {
		if n := len(fleetStore.Get(k)); n != 1 {
			t.Fatalf("key %s has %d records after chaos, want exactly 1", k, n)
		}
	}
	if st.Executed+st.Cached+st.Quarantined != st.Total {
		t.Fatalf("accounting does not partition the sweep: %+v", st)
	}
	t.Logf("chaos run: %+v; survivor stats %+v", st, stats)
}

// TestChaosWorkerSpoolsThroughPartition: a worker that loses the coordinator
// mid-chunk finishes the chunk, spools every record of it locally, and
// replays them on reconnect in one completion — no result is lost to the
// partition, none stored twice.
func TestChaosWorkerSpoolsThroughPartition(t *testing.T) {
	cfgs := tinyCfgs(1)
	// Many poll intervals of waitFor long, so the link is severed while the
	// chunk's first trial still runs, not after the chunk was delivered; and
	// measured at a millisecond, so the first lease is a chunk: 4 of the 8.
	cfgs[0].Duration = 100 * time.Millisecond
	const trials, chunk = 8, 4
	store := results.NewMemStore()
	measure(t, store, cfgs[0], time.Millisecond)
	seeded := store.Len()
	coord, err := NewCoordinator(cfgs, trials, CoordinatorConfig{
		Store: store, LeaseTTL: 10 * time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)

	ft := NewFaultTransport(srv.Client().Transport, 7)
	spool := filepath.Join(t.TempDir(), "spool.jsonl")
	w := &Worker{
		Client: &Client{Base: srv.URL, HTTP: &http.Client{Transport: ft},
			Timeout: time.Second, Retries: 1, RetryBase: time.Millisecond, Seed: 7},
		Runner:    &grid.Runner{},
		Name:      "partitioned",
		SpoolPath: spool,
		Logf:      t.Logf,
	}

	// Sever the link the moment the first lease is granted: the chunk
	// finishes against a dead coordinator.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var stats WorkerStats
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, runErr = w.Run(ctx)
	}()
	waitFor(t, 30*time.Second, "first lease", func() bool { return coord.Status().Leased > 0 })
	ft.Sever()
	if leased := coord.Status().Leased; leased != chunk {
		t.Fatalf("first lease carries %d trials, want a chunk of %d", leased, chunk)
	}
	// The worker completes the chunk, fails to deliver, spools, and starts
	// its reconnect loop, which leaves the spool alone while nothing gets
	// through.
	waitFor(t, 30*time.Second, "the chunk to hit the spool", func() bool {
		return w.Stats().Spooled == chunk
	})
	data, err := os.ReadFile(spool)
	if err != nil || bytes.Count(data, []byte("\n")) != chunk {
		t.Fatalf("spool holds %d lines (%v), want %d", bytes.Count(data, []byte("\n")), err, chunk)
	}
	if store.Len() != seeded {
		t.Fatal("severed worker somehow delivered a record")
	}
	ft.Heal()
	wg.Wait()
	if runErr != nil {
		t.Fatalf("worker: %v", runErr)
	}

	st := coord.Status()
	if !st.Complete || st.Executed != trials || st.Duplicates != 0 {
		t.Fatalf("post-partition sweep incomplete: %+v", st)
	}
	if stats.Spooled != chunk || stats.Replayed != chunk || stats.Reconnects < 1 {
		t.Fatalf("spool cycle not observed: %+v", stats)
	}
	// The replay was one completion for the chunk, not one per record: with
	// it, and a completion for each of the four trials left (by then the
	// model knows what they take), the coordinator served five.
	if st.Completions > 1+trials-chunk {
		t.Fatalf("coordinator served %d completions, want the replay to be one: %+v", st.Completions, st)
	}
	if _, err := os.Stat(spool); !os.IsNotExist(err) {
		t.Fatalf("replayed spool should be removed, stat err = %v", err)
	}
	if store.Len() != seeded+trials {
		t.Fatalf("store has %d records, want %d", store.Len(), seeded+trials)
	}
	for _, k := range store.Keys() {
		if n := len(store.Get(k)); n != 1 {
			t.Fatalf("key %s has %d records, want exactly 1", k, n)
		}
	}
}

// TestChaosWorkerDroppedMidChunk: a worker that dies after finishing three
// trials of a chunk of eight takes those three records with it — that is
// what a chunk costs, at most a quantum of work. Every one of its eight
// leases expires and is re-issued, and the sweep still converges on one
// record per key.
func TestChaosWorkerDroppedMidChunk(t *testing.T) {
	cfgs := tinyCfgs(1)
	cfgs[0].Duration = 50 * time.Millisecond
	const trials, chunk = 16, 8
	store := results.NewMemStore()
	measure(t, store, cfgs[0], time.Millisecond)
	seeded := store.Len()
	coord, err := NewCoordinator(cfgs, trials, CoordinatorConfig{
		Store: store, LeaseTTL: 300 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	victimCtx, kill := context.WithCancel(ctx)
	victim := newWorker(t, srv.URL, "victim", 1)
	var victimDone sync.WaitGroup
	victimDone.Add(1)
	go func() {
		defer victimDone.Done()
		victim.Run(victimCtx)
	}()
	waitFor(t, 30*time.Second, "victim to finish 3 of its chunk", func() bool { return victim.Stats().Executed >= 3 })
	if leased := coord.Status().Leased; leased != chunk {
		t.Fatalf("victim holds %d leases, want a chunk of %d", leased, chunk)
	}
	kill()
	victimDone.Wait()
	if n := store.Len() - seeded; n != 0 {
		t.Fatalf("victim delivered %d records of an unfinished chunk", n)
	}

	stats, err := newWorker(t, srv.URL, "survivor", 2).Run(ctx)
	if err != nil {
		t.Fatalf("survivor: %v (stats %+v, status %+v)", err, stats, coord.Status())
	}
	st := coord.Status()
	if !st.Complete || st.Executed != trials || st.Reissued != chunk || st.Duplicates > 3 || st.Leased != 0 {
		t.Fatalf("want all %d of the victim's leases re-issued and the sweep complete: %+v", chunk, st)
	}
	if stats.Executed != trials {
		t.Fatalf("survivor executed %d trials, want all %d", stats.Executed, trials)
	}
	for _, k := range store.Keys() {
		if n := len(store.Get(k)); n != 1 {
			t.Fatalf("key %s has %d records, want exactly 1", k, n)
		}
	}
}

// TestChaosRenewalCoversTheChunk: one renewal loop keeps every grant of a
// chunk alive — the running trial's, the ones queued behind it and the
// finished ones waiting to be reported — at a third of the TTL the
// coordinator states, not of what the worker's clock makes of the expiry.
// Four trials of 200 ms that the model took for 1 ms each, under a 300 ms TTL
// on a coordinator whose clock is an hour behind: without renewal of the
// queued grants the second trial's lease is gone before it starts.
func TestChaosRenewalCoversTheChunk(t *testing.T) {
	cfgs := tinyCfgs(1)
	cfgs[0].Duration = 200 * time.Millisecond
	const trials, chunk = 8, 4
	store := results.NewMemStore()
	measure(t, store, cfgs[0], time.Millisecond)
	coord, err := NewCoordinator(cfgs, trials, CoordinatorConfig{
		Store: store, LeaseTTL: 300 * time.Millisecond, Logf: t.Logf,
		Clock: func() time.Time { return time.Now().Add(-time.Hour) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)
	// Expiry is evaluated when somebody leases or renews, and a lone worker
	// asks for a lease only between chunks. Stand in for the rest of a fleet.
	stop := make(chan struct{})
	var poker sync.WaitGroup
	poker.Add(1)
	go func() {
		defer poker.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				coord.Renew(RenewRequest{LeaseID: "nobody's"})
			}
		}
	}()
	stats, err := newWorker(t, srv.URL, "steady", 3).Run(t.Context())
	close(stop)
	poker.Wait()
	if err != nil {
		t.Fatal(err)
	}
	claims := store.Journal()
	if len(claims) < chunk || claims[chunk-1].LeaseUntil != claims[0].LeaseUntil {
		t.Fatalf("first lease was not a chunk of %d: %d claims", chunk, len(claims))
	}
	st := coord.Status()
	if !st.Complete || st.Executed != trials || st.Reissued != 0 || st.Duplicates != 0 || stats.Executed != trials {
		t.Fatalf("a renewed chunk must neither expire nor run twice: %+v, worker %+v", st, stats)
	}
}

// TestChaosCoordinatorRestartMidSweep kills the coordinator after the first
// completion and brings a new one up on the same store file and URL. The
// worker rides out the outage (degraded mode) and the replacement resumes
// from the journal: already-completed trials are cached, only the remainder
// executes, and the final store is exactly one record per trial.
func TestChaosCoordinatorRestartMidSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	cfgs := tinyCfgs(3)

	st1, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: st1, LeaseTTL: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	// The server routes through an atomic handler pointer so "restart" swaps
	// coordinators without changing the URL (same host:port, new process).
	var handler atomic.Value
	handler.Store(coord1.Handler())
	var down atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "coordinator down", http.StatusServiceUnavailable)
			return
		}
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := &Worker{
		Client: &Client{Base: srv.URL, HTTP: srv.Client(), Timeout: time.Second,
			Retries: 1, RetryBase: time.Millisecond, Seed: 3},
		Runner:    &grid.Runner{},
		Name:      "steady",
		SpoolPath: filepath.Join(t.TempDir(), "spool.jsonl"),
		Logf:      t.Logf,
	}
	var wg sync.WaitGroup
	var stats WorkerStats
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, runErr = w.Run(ctx)
	}()

	// Crash the coordinator after the first completion lands.
	waitFor(t, 30*time.Second, "first completion", func() bool { return coord1.Status().Done >= 1 })
	down.Store(true)
	doneAtCrash := coord1.Status().Done
	st1.Close()

	// Restart: fresh store over the same file (the journal), fresh
	// coordinator, same URL.
	st2, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	coord2, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: st2, LeaseTTL: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := coord2.Status().Cached; got < doneAtCrash {
		t.Fatalf("restarted coordinator resumed %d cached trials, want >= %d", got, doneAtCrash)
	}
	handler.Store(coord2.Handler())
	down.Store(false)

	wg.Wait()
	if runErr != nil {
		t.Fatalf("worker: %v (stats %+v)", runErr, stats)
	}
	st := coord2.Status()
	if !st.Complete {
		t.Fatalf("restarted sweep did not converge: %+v", st)
	}
	if st.Executed+st.Cached != st.Total {
		t.Fatalf("restart accounting: %+v", st)
	}
	if st2.Len() != st.Total {
		t.Fatalf("store has %d records, want %d", st2.Len(), st.Total)
	}

	// And a second restart over the finished sweep executes nothing.
	st3, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	coord3, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: st3})
	if err != nil {
		t.Fatal(err)
	}
	if fin := coord3.Status(); !fin.Complete || fin.Executed != 0 || fin.Cached+fin.Quarantined != fin.Total {
		t.Fatalf("restart over a finished sweep must execute nothing: %+v", fin)
	}
}

// TestChaosDuplicatedCompletionRPC: the fault transport's duplicate fault
// delivers the same completion twice at the HTTP layer (a retransmit where
// both copies reach the server); the store must end up with exactly one
// record (AppendIfAbsent) and the second copy must resolve as a duplicate.
func TestChaosDuplicatedCompletionRPC(t *testing.T) {
	cfgs := tinyCfgs(1)
	store := results.NewMemStore()
	coord, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: store, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)

	// Lease in-process (no faults on the grant path), then deliver the
	// completion through a transport that duplicates every request.
	l, err := coord.Lease(LeaseRequest{Worker: "dup"})
	if err != nil || l.Status != StatusLease {
		t.Fatalf("lease: %+v, %v", l, err)
	}
	ft := NewFaultTransport(srv.Client().Transport, 11)
	ft.DupP = 1.0
	cl := &Client{Base: srv.URL, HTTP: &http.Client{Transport: ft},
		Timeout: 5 * time.Second, Retries: 0, Seed: 11}
	resp, err := cl.Complete(context.Background(), CompleteRequest{
		LeaseID: l.LeaseID, Worker: "dup", Key: l.Key,
		Record: results.NewRecord(l.Config, fakeTrial(l.Config)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The caller sees the SECOND copy's response: by then the first already
	// landed, so the visible answer is the deduped acknowledgement.
	if !resp.Accepted || !resp.Duplicate {
		t.Fatalf("second copy of a duplicated completion should dedupe: %+v", resp)
	}
	st := coord.Status()
	if !st.Complete || st.Executed != 1 || st.Duplicates != 1 {
		t.Fatalf("sweep under duplicated completion: %+v", st)
	}
	if n := len(store.Get(l.Key)); n != 1 {
		t.Fatalf("key has %d records, want 1", n)
	}
}

// TestChaosDuplicatedCompletionWithLeaseRequest: the same retransmit fault,
// on a completion that carries the worker's next lease request. Both copies
// reach the lease policy, so the first copy's grant is orphaned — nobody
// ever saw it — and the holder of the visible grant dies too. Both leases
// must come back by expiry and the sweep must still converge on the record
// set a solo Runner.Run produces: nothing lost, nothing doubled, nothing
// stranded.
func TestChaosDuplicatedCompletionWithLeaseRequest(t *testing.T) {
	cfgs := tinyCfgs(3)
	soloStore := results.NewMemStore()
	if _, err := (&grid.Runner{Store: soloStore}).Run(cfgs, 1); err != nil {
		t.Fatal(err)
	}
	store := results.NewMemStore()
	coord, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: store, LeaseTTL: 200 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)

	l, err := coord.Lease(LeaseRequest{Worker: "dup"})
	if err != nil || l.Status != StatusLease {
		t.Fatalf("lease: %+v, %v", l, err)
	}
	ft := NewFaultTransport(srv.Client().Transport, 11)
	ft.DupP = 1.0
	cl := &Client{Base: srv.URL, HTTP: &http.Client{Transport: ft},
		Timeout: 5 * time.Second, Retries: 0, Seed: 11}
	resp, err := cl.Complete(context.Background(), CompleteRequest{
		LeaseID: l.LeaseID, Worker: "dup", Key: l.Key,
		Record: results.NewRecord(l.Config, fakeTrial(l.Config)),
		Next:   &LeaseRequest{Worker: "dup"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The visible answer is the second copy's: a duplicate, with a grant of
	// its own — a different trial from the one the first copy was granted.
	if !resp.Accepted || !resp.Duplicate || resp.Next == nil || resp.Next.Status != StatusLease {
		t.Fatalf("second copy should dedupe and still be granted a lease: %+v", resp)
	}
	if st := coord.Status(); st.Executed != 1 || st.Duplicates != 1 || st.Leased != 2 {
		t.Fatalf("after the duplicated completion: %+v, want 1 executed, 1 duplicate, 2 leases (one orphaned)", st)
	}

	// "dup" never runs either grant. A healthy worker drains the rest once
	// the two leases expire.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stats, err := newWorker(t, srv.URL, "healthy", 5).Run(ctx)
	if err != nil {
		t.Fatalf("healthy worker: %v (stats %+v, status %+v)", err, stats, coord.Status())
	}
	st := coord.Status()
	if !st.Complete || st.Reissued != 2 || st.Leased != 0 || stats.Executed != 2 {
		t.Fatalf("orphaned grants were not both re-issued and finished: %+v, worker %+v", st, stats)
	}
	if got, want := sortedKeys(store), sortedKeys(soloStore); !reflect.DeepEqual(got, want) {
		t.Fatalf("store diverged from single-process result set:\n got %v\nwant %v", got, want)
	}
	for _, k := range store.Keys() {
		if n := len(store.Get(k)); n != 1 {
			t.Fatalf("key %s has %d records, want exactly 1", k, n)
		}
	}
}
