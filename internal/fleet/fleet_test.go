package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
)

// tinyCfgs builds n fast real workloads (distinct thread counts so their
// trial keys differ).
func tinyCfgs(n int) []bench.WorkloadConfig {
	cfgs := make([]bench.WorkloadConfig, n)
	for i := range cfgs {
		c := bench.DefaultWorkload(1 + i%4)
		c.KeyRange = 1 << 10
		c.Duration = 5 * time.Millisecond
		c.Seed = uint64(100 + i)
		cfgs[i] = c
	}
	return cfgs
}

// fakeTrial builds a plausible TrialResult for coordinator-level tests that
// never execute real workloads.
func fakeTrial(cfg bench.WorkloadConfig) bench.TrialResult {
	return bench.TrialResult{Scenario: cfg.Scenario, Seed: cfg.Seed, Ops: 1000, OpsPerSec: 1000}
}

func sortedKeys(st *results.Store) []string {
	keys := st.Keys()
	sort.Strings(keys)
	return keys
}

// startFleet serves coord over real HTTP for the duration of the test.
func startFleet(t *testing.T, coord *Coordinator) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func newWorker(t *testing.T, base string, name string, seed uint64) *Worker {
	t.Helper()
	return &Worker{
		Client: &Client{Base: base, Timeout: 5 * time.Second, Retries: 2,
			RetryBase: 2 * time.Millisecond, Seed: seed},
		Runner:    &grid.Runner{},
		Name:      name,
		SpoolPath: filepath.Join(t.TempDir(), "spool.jsonl"),
	}
}

// TestFleetConvergesToSingleProcessResult is the core contract: a two-worker
// fleet sweep lands the exact record set a single-process Runner.Run of the
// same spec produces — same keys, one record per key, nothing lost.
func TestFleetConvergesToSingleProcessResult(t *testing.T) {
	cfgs := tinyCfgs(3)
	const trials = 2

	soloStore := results.NewMemStore()
	solo := &grid.Runner{Store: soloStore}
	if _, err := solo.Run(cfgs, trials); err != nil {
		t.Fatal(err)
	}

	fleetStore := results.NewMemStore()
	coord, err := NewCoordinator(cfgs, trials, CoordinatorConfig{Store: fleetStore, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	stats := make([]WorkerStats, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		w := newWorker(t, srv.URL, []string{"w1", "w2"}[i], uint64(i+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	if got, want := sortedKeys(fleetStore), sortedKeys(soloStore); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet store keys diverge from single-process sweep:\n got %v\nwant %v", got, want)
	}
	for _, k := range fleetStore.Keys() {
		if n := len(fleetStore.Get(k)); n != 1 {
			t.Fatalf("key %s has %d records, want exactly 1", k, n)
		}
	}
	st := coord.Status()
	if !st.Complete || st.Executed != 3*trials || st.Done != st.Total {
		t.Fatalf("status not converged: %+v", st)
	}
	if st.Duplicates != 0 || st.Reissued != 0 {
		t.Fatalf("healthy fleet saw duplicates/reissues: %+v", st)
	}
	if got := stats[0].Executed + stats[1].Executed; got != 3*trials {
		t.Fatalf("workers executed %d trials, want %d", got, 3*trials)
	}

	sums := coord.Summaries()
	if len(sums) != len(cfgs) {
		t.Fatalf("got %d summaries, want %d", len(sums), len(cfgs))
	}
	for i, s := range sums {
		if len(s.Trials) != trials {
			t.Fatalf("summary %d has %d trials, want %d", i, len(s.Trials), trials)
		}
		if s.MeanOps <= 0 {
			t.Fatalf("summary %d has no throughput: %+v", i, s)
		}
	}

	// Provenance rode along: every fleet record knows its worker and host.
	for _, rec := range fleetStore.Records() {
		if rec.Worker == "" {
			t.Fatalf("record %s lost its worker attribution", rec.Key)
		}
		if rec.Trial.Host == "" || rec.Trial.GoVersion == "" || rec.Trial.Procs <= 0 {
			t.Fatalf("record %s missing provenance: host=%q gover=%q procs=%d",
				rec.Key, rec.Trial.Host, rec.Trial.GoVersion, rec.Trial.Procs)
		}
	}
}

// TestLeaseExpiryReissuesTrial simulates a worker dying mid-trial: its lease
// expires (injected clock) and the trial is re-issued; the dead worker's late
// completion then resolves by key dedupe.
func TestLeaseExpiryReissuesTrial(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	store := results.NewMemStore()
	cfgs := tinyCfgs(1)
	coord, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: store, LeaseTTL: time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}

	l1, err := coord.Lease(LeaseRequest{Worker: "doomed"})
	if err != nil || l1.Status != StatusLease {
		t.Fatalf("first lease: %+v, %v", l1, err)
	}
	if wait, _ := coord.Lease(LeaseRequest{Worker: "second"}); wait.Status != StatusWait {
		t.Fatalf("second worker should wait while the trial is leased: %+v", wait)
	}

	now = now.Add(2 * time.Second) // the doomed worker never renews
	l2, err := coord.Lease(LeaseRequest{Worker: "second"})
	if err != nil || l2.Status != StatusLease {
		t.Fatalf("post-expiry lease: %+v, %v", l2, err)
	}
	if l2.Key != l1.Key {
		t.Fatalf("re-issued a different trial: %s vs %s", l2.Key, l1.Key)
	}
	if l2.LeaseID == l1.LeaseID {
		t.Fatal("re-issue must mint a fresh lease id")
	}
	if st := coord.Status(); st.Reissued != 1 {
		t.Fatalf("reissued = %d, want 1", st.Reissued)
	}

	// The doomed worker finishes anyway (it was only slow, not dead): first
	// completion in wins, the second resolves as a duplicate.
	rec := results.NewRecord(l1.Config, fakeTrial(l1.Config))
	c1, err := coord.Complete(CompleteRequest{LeaseID: l1.LeaseID, Worker: "doomed", Key: l1.Key, Record: rec})
	if err != nil || !c1.Accepted || c1.Duplicate {
		t.Fatalf("late completion rejected: %+v, %v", c1, err)
	}
	c2, err := coord.Complete(CompleteRequest{LeaseID: l2.LeaseID, Worker: "second", Key: l2.Key, Record: rec})
	if err != nil || !c2.Accepted || !c2.Duplicate {
		t.Fatalf("race loser should dedupe: %+v, %v", c2, err)
	}
	if n := len(store.Get(l1.Key)); n != 1 {
		t.Fatalf("store has %d records for the raced key, want 1", n)
	}
	st := coord.Status()
	if !st.Complete || st.Duplicates != 1 || st.Executed != 1 {
		t.Fatalf("post-race status: %+v", st)
	}
}

// TestRenewExtendsLease: a renewing worker holds its lease past the TTL; a
// silent one loses it.
func TestRenewExtendsLease(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	store := results.NewMemStore()
	coord, err := NewCoordinator(tinyCfgs(1), 1, CoordinatorConfig{Store: store, LeaseTTL: time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := coord.Lease(LeaseRequest{Worker: "slow"})
	now = now.Add(800 * time.Millisecond)
	if r := coord.Renew(RenewRequest{LeaseID: l.LeaseID, Worker: "slow"}); !r.OK {
		t.Fatalf("renew of a live lease failed: %+v", r)
	}
	now = now.Add(800 * time.Millisecond) // 1.6s after grant, 0.8s after renew
	if resp, _ := coord.Lease(LeaseRequest{Worker: "other"}); resp.Status != StatusWait {
		t.Fatalf("renewed lease was lost: %+v", resp)
	}
	now = now.Add(2 * time.Second)
	if r := coord.Renew(RenewRequest{LeaseID: l.LeaseID, Worker: "slow"}); r.OK {
		t.Fatal("renew of an expired lease must report OK=false")
	}
}

// TestCompleteUnknownKeyRejected: a worker talking to a coordinator that
// never expanded its trial gets a protocol rejection, not a crash.
func TestCompleteUnknownKeyRejected(t *testing.T) {
	store := results.NewMemStore()
	coord, err := NewCoordinator(tinyCfgs(1), 1, CoordinatorConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := coord.Complete(CompleteRequest{Worker: "stray", Key: "not-a-key", Record: results.Record{Key: "not-a-key"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted {
		t.Fatal("unknown key must be rejected")
	}
	if store.Len() != 0 {
		t.Fatal("rejected completion must not reach the store")
	}
}

// TestCoordinatorResumesFromStore is the crash-recovery contract: a
// coordinator restarted over the same store file skips everything already
// completed — a fully-done sweep resumes with zero work.
func TestCoordinatorResumesFromStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	cfgs := tinyCfgs(2)

	st1, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the sweep by hand: lease everything, complete everything.
	for {
		l, err := coord1.Lease(LeaseRequest{Worker: "w1"})
		if err != nil {
			t.Fatal(err)
		}
		if l.Status == StatusDone {
			break
		}
		rec := results.NewRecord(l.Config, fakeTrial(l.Config))
		if resp, err := coord1.Complete(CompleteRequest{LeaseID: l.LeaseID, Worker: "w1", Key: l.Key, Record: rec}); err != nil || !resp.Accepted {
			t.Fatalf("complete: %+v, %v", resp, err)
		}
	}
	if st := coord1.Status(); !st.Complete || st.Executed != 2 {
		t.Fatalf("first pass did not complete: %+v", st)
	}
	st1.Close()

	// "Restart": a fresh store over the same file, a fresh coordinator over
	// the same spec.
	st2, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// The claims journaled by the first coordinator came back as journal
	// records — never as cache entries.
	if got := len(st2.Journal()); got != 2 {
		t.Fatalf("reloaded store has %d journal records, want 2 claims", got)
	}
	for _, j := range st2.Journal() {
		if j.Kind != results.KindClaim || j.Worker != "w1" || j.LeaseUntil == 0 {
			t.Fatalf("malformed claim journal record: %+v", j)
		}
	}
	if st2.Len() != 2 {
		t.Fatalf("reloaded store has %d result records, want 2", st2.Len())
	}

	coord2, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	st := coord2.Status()
	if !st.Complete || st.Cached != 2 || st.Executed != 0 {
		t.Fatalf("resume must satisfy everything from the store: %+v", st)
	}
	if l, _ := coord2.Lease(LeaseRequest{Worker: "w1"}); l.Status != StatusDone {
		t.Fatalf("resumed coordinator should answer done immediately: %+v", l)
	}
	select {
	case <-coord2.Done():
	default:
		t.Fatal("resumed coordinator's Done channel should be closed")
	}
}

// TestCoordinatorResumesPartialSweep: a coordinator killed mid-sweep re-runs
// only the incomplete trials.
func TestCoordinatorResumesPartialSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	cfgs := tinyCfgs(3)

	st1, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	// Complete exactly one trial, then "crash" (abandon coord1 with a trial
	// still leased — its claim is journaled but uncommitted).
	l1, _ := coord1.Lease(LeaseRequest{Worker: "w1"})
	coord1.Complete(CompleteRequest{LeaseID: l1.LeaseID, Worker: "w1", Key: l1.Key,
		Record: results.NewRecord(l1.Config, fakeTrial(l1.Config))})
	l2, _ := coord1.Lease(LeaseRequest{Worker: "w1"})
	if l2.Status != StatusLease {
		t.Fatalf("second lease: %+v", l2)
	}
	st1.Close()

	st2, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	coord2, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	st := coord2.Status()
	if st.Cached != 1 || st.Done != 1 || st.Complete {
		t.Fatalf("partial resume: %+v", st)
	}
	// The abandoned lease's trial is pending again — stale claims are audit
	// entries, not commitments.
	seen := map[string]bool{}
	for {
		l, err := coord2.Lease(LeaseRequest{Worker: "w2"})
		if err != nil {
			t.Fatal(err)
		}
		if l.Status == StatusDone {
			break
		}
		seen[l.Key] = true
		coord2.Complete(CompleteRequest{LeaseID: l.LeaseID, Worker: "w2", Key: l.Key,
			Record: results.NewRecord(l.Config, fakeTrial(l.Config))})
	}
	if !seen[l2.Key] {
		t.Fatalf("trial %s leased at crash time was never re-issued", short(l2.Key))
	}
	if st := coord2.Status(); !st.Complete || st.Executed != 2 || st.Cached != 1 {
		t.Fatalf("resumed sweep: %+v", st)
	}
}

// TestClientRetriesTransientServerErrors: the client survives a flaky
// endpoint by retrying with backoff, and gives up with a typed rpcError when
// the outage outlasts the budget.
func TestClientRetriesTransientServerErrors(t *testing.T) {
	store := results.NewMemStore()
	coord, err := NewCoordinator(tinyCfgs(1), 1, CoordinatorConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)

	ft := NewFaultTransport(nil, 42)
	cl := &Client{Base: srv.URL, HTTP: srv.Client(), Timeout: time.Second,
		Retries: 8, RetryBase: time.Millisecond, Seed: 7}
	cl.HTTP.Transport = ft

	ft.DropP = 0.5 // half the requests vanish; retries must absorb it
	if _, err := cl.Status(context.Background()); err != nil {
		t.Fatalf("status through lossy transport: %v", err)
	}

	ft.Sever()
	_, err = cl.Lease(context.Background(), LeaseRequest{Worker: "w"})
	if err == nil {
		t.Fatal("lease through severed transport must fail")
	}
	if !IsRPCError(err) {
		t.Fatalf("severed-transport failure should be an rpcError, got %T: %v", err, err)
	}
	ft.Heal()
	if _, err := cl.Lease(context.Background(), LeaseRequest{Worker: "w"}); err != nil {
		t.Fatalf("lease after heal: %v", err)
	}
}

// TestFaultTransportDeterminism: same seed, same request sequence, same
// fault decisions — the property that makes chaos runs replayable.
func TestFaultTransportDeterminism(t *testing.T) {
	draw := func(seed uint64) []bool {
		ft := NewFaultTransport(nil, seed)
		ft.DropP = 0.3
		out := make([]bool, 64)
		for i := range out {
			out[i] = ft.roll() < ft.DropP
		}
		return out
	}
	if !reflect.DeepEqual(draw(99), draw(99)) {
		t.Fatal("same seed must replay the same fault sequence")
	}
	if reflect.DeepEqual(draw(99), draw(100)) {
		t.Fatal("different seeds should diverge")
	}
}

// TestCompletionEndsTheTasksLease: a trial finished by a completion that
// does not name the task's live lease — a spool replay carries no lease id,
// a slow worker names its superseded one — still ends that lease. Otherwise
// it sits in the table until TTL: counted by Status.Leased, renewable, and
// taken for outstanding work by the wait estimate.
func TestCompletionEndsTheTasksLease(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	coord, err := NewCoordinator(tinyCfgs(2), 1, CoordinatorConfig{Store: results.NewMemStore(), LeaseTTL: time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	complete := func(leaseID string, l LeaseResponse) {
		t.Helper()
		rec := results.NewRecord(l.Config, fakeTrial(l.Config))
		if resp, err := coord.Complete(CompleteRequest{LeaseID: leaseID, Worker: "w", Key: l.Key, Record: rec}); err != nil || !resp.Accepted || resp.Duplicate {
			t.Fatalf("completion: %+v, %v", resp, err)
		}
	}

	// Spool replay: the record arrives without a lease id.
	l1, _ := coord.Lease(LeaseRequest{Worker: "w"})
	complete("", l1)
	if st := coord.Status(); st.Leased != 0 {
		t.Fatalf("replayed completion left %d leases outstanding", st.Leased)
	}
	if r := coord.Renew(RenewRequest{LeaseID: l1.LeaseID, Worker: "w"}); r.OK {
		t.Fatal("lease of a finished trial still renews")
	}

	// Superseded lease: the trial was re-issued, then the first holder
	// finishes under its old lease id.
	l2, _ := coord.Lease(LeaseRequest{Worker: "slow"})
	now = now.Add(2 * time.Second)
	l3, _ := coord.Lease(LeaseRequest{Worker: "other"})
	if l3.Key != l2.Key || l3.LeaseID == l2.LeaseID {
		t.Fatalf("expected a re-issue of %s, got %+v", short(l2.Key), l3)
	}
	complete(l2.LeaseID, l2)
	if st := coord.Status(); st.Leased != 0 || !st.Complete {
		t.Fatalf("late completion left the re-issued lease behind: %+v", st)
	}
	if r := coord.Renew(RenewRequest{LeaseID: l3.LeaseID, Worker: "other"}); r.OK {
		t.Fatal("re-issued lease of a finished trial still renews")
	}
}

// quickCfgs builds n one-thread configurations whose trials take about a
// millisecond, the regime where what a trial costs outside the trial shows.
func quickCfgs(n int) []bench.WorkloadConfig {
	cfgs := make([]bench.WorkloadConfig, n)
	for i := range cfgs {
		c := bench.DefaultWorkload(1)
		c.KeyRange = 512
		c.Duration = 0
		c.FixedOps = 2000 + 500*i
		c.Seed = uint64(100 + i)
		cfgs[i] = c
	}
	return cfgs
}

// countingTransport counts RPCs by path.
type countingTransport struct {
	next http.RoundTripper
	mu   sync.Mutex
	n    map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.n[req.URL.Path]++
	c.mu.Unlock()
	return c.next.RoundTrip(req)
}

// runQuickFleet drains cfgs×trials over store with two workers over HTTP,
// counting their RPCs, and returns how long after the sweep's last completion
// the last worker returned.
func runQuickFleet(t *testing.T, store *results.Store, cfgs []bench.WorkloadConfig, trials int) (rpcs map[string]int, tail time.Duration) {
	t.Helper()
	coord, err := NewCoordinator(cfgs, trials, CoordinatorConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)
	counter := &countingTransport{next: srv.Client().Transport, n: map[string]int{}}
	var doneAt time.Time
	sweepDone := make(chan struct{})
	go func() {
		<-coord.Done()
		doneAt = time.Now()
		close(sweepDone)
	}()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		w := newWorker(t, srv.URL, []string{"w1", "w2"}[i], uint64(i+1))
		w.Client.HTTP = &http.Client{Transport: counter}
		w.Capacity = 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = w.Run(t.Context())
		}()
	}
	wg.Wait()
	returned := time.Now()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	<-sweepDone
	if st := coord.Status(); !st.Complete || st.Executed != st.Total || st.Duplicates != 0 || st.Reissued != 0 || st.Leased != 0 {
		t.Fatalf("quick fleet did not converge cleanly: %+v", st)
	}
	return counter.n, returned.Sub(doneAt)
}

// TestWorkersReturnPromptlyAtSweepEnd: the worker left without a trial at
// the tail is told to wait about as long as the outstanding trial should
// still take, not a flat quarter second, so it learns the sweep is over
// within milliseconds of the last completion.
func TestWorkersReturnPromptlyAtSweepEnd(t *testing.T) {
	_, tail := runQuickFleet(t, results.NewMemStore(), quickCfgs(4), 8)
	t.Logf("last worker returned %v after the last completion", tail)
	if tail > 50*time.Millisecond {
		t.Fatalf("last worker returned %v after the last completion, want < 50ms", tail)
	}
}

// TestOneRoundTripPerTrial is the bound on what dispatch costs a cheap trial:
// a lease is filled up to the quantum and reported in one completion that
// carries the next lease request, so a sweep of N trials of configurations
// measured at about a millisecond costs at most N/4 completion RPCs — the
// chunks are the fair share of what is pending, so they shrink towards the
// tail — one first lease per worker, no renewals, and the few polls of
// whichever worker waits out the tail.
func TestOneRoundTripPerTrial(t *testing.T) {
	const n = 128
	store := results.NewMemStore()
	cfgs := quickCfgs(4)
	for _, cfg := range cfgs {
		measure(t, store, cfg, time.Millisecond)
	}
	rpcs, _ := runQuickFleet(t, store, cfgs, n/4)
	total := 0
	for _, c := range rpcs {
		total += c
	}
	t.Logf("%d trials: %v = %.3f RPCs per trial", n, rpcs, float64(total)/n)
	if rpcs["/v1/complete"] > n/4 || rpcs["/v1/renew"] != 0 {
		t.Fatalf("want at most %d completions and no renewals, got %v", n/4, rpcs)
	}
	// Two first leases; the rest are tail polls, a handful at most (they
	// back off).
	if polls := rpcs["/v1/lease"] - 2; polls < 0 || polls > 8 {
		t.Fatalf("want 2 first leases plus at most 8 tail polls, got %d lease RPCs", rpcs["/v1/lease"])
	}
}
