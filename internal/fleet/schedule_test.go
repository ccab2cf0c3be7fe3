package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
)

// costedCfgs builds a heterogeneous sweep whose static costs are strictly
// ordered by threads × ops, deliberately expanded cheapest-first (the
// adversarial order for FIFO granting).
func costedCfgs() []bench.WorkloadConfig {
	var cfgs []bench.WorkloadConfig
	for i, shape := range []struct{ threads, ops int }{
		{1, 500}, {2, 1000}, {4, 2000}, {8, 4000},
	} {
		c := bench.DefaultWorkload(shape.threads)
		c.FixedOps = shape.ops
		c.Duration = 0
		c.KeyRange = 1 << 10
		c.Seed = uint64(100 + i)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestLeaseGrantsDescendingCost pins the coordinator's LPT face: an
// unlimited-capacity worker leasing repeatedly receives trials in strictly
// non-increasing estimated cost, regardless of expansion order.
func TestLeaseGrantsDescendingCost(t *testing.T) {
	coord, err := NewCoordinator(costedCfgs(), 1, CoordinatorConfig{Store: results.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := 0; i < 4; i++ {
		l, err := coord.Lease(LeaseRequest{Worker: "big", Capacity: -1})
		if err != nil {
			t.Fatal(err)
		}
		if l.Status != StatusLease {
			t.Fatalf("lease %d: status %q, want lease", i, l.Status)
		}
		est := grid.StaticCost(l.Config)
		if prev >= 0 && est > prev {
			t.Fatalf("grant %d cost %.0f exceeds previous grant %.0f — not descending", i, est, prev)
		}
		prev = est
	}
	if l, _ := coord.Lease(LeaseRequest{Worker: "big"}); l.Status != StatusWait {
		t.Fatalf("fifth lease status %q, want wait", l.Status)
	}
}

// TestLeaseRespectsCapacity pins capacity-aware placement: a worker
// advertising capacity 2 is granted the costliest trial whose Threads fit —
// never the 4- or 8-thread ones while 1- and 2-thread trials are pending —
// and when nothing fits, the cheapest pending trial is granted anyway
// (capacity is advisory: a slow trial beats a stalled sweep).
func TestLeaseRespectsCapacity(t *testing.T) {
	coord, err := NewCoordinator(costedCfgs(), 1, CoordinatorConfig{Store: results.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := coord.Lease(LeaseRequest{Worker: "small", Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if l1.Config.Threads != 2 {
		t.Fatalf("capacity-2 worker granted %d-thread trial, want the 2-thread one", l1.Config.Threads)
	}
	l2, _ := coord.Lease(LeaseRequest{Worker: "small", Capacity: 2})
	if l2.Config.Threads != 1 {
		t.Fatalf("second capacity-2 grant is %d threads, want 1", l2.Config.Threads)
	}
	// Only 4- and 8-thread trials remain: nothing fits capacity 2, so the
	// fallback grants the cheapest pending (the 4-thread trial).
	l3, _ := coord.Lease(LeaseRequest{Worker: "small", Capacity: 2})
	if l3.Status != StatusLease || l3.Config.Threads != 4 {
		t.Fatalf("fallback grant = %q/%d threads, want lease of the 4-thread trial",
			l3.Status, l3.Config.Threads)
	}
}

// measure stores one record of cfg, under a seed outside any sweep, that took
// elapsed: the configuration's group then estimates at that mean.
func measure(t *testing.T, store *results.Store, cfg bench.WorkloadConfig, elapsed time.Duration) {
	t.Helper()
	cfg.Seed = 7777
	tr := fakeTrial(cfg)
	tr.ElapsedNanos = int64(elapsed)
	if err := store.Append(results.NewRecord(cfg, tr)); err != nil {
		t.Fatal(err)
	}
}

// TestBatchLeaseDedupeSafety pins chunk grants: one RPC carries multiple
// trials under distinct lease IDs and distinct keys, every claim is
// journaled, and a duplicated completion of a batched trial dedupes exactly
// like a primary one.
func TestBatchLeaseDedupeSafety(t *testing.T) {
	store := results.NewMemStore()
	cfgs := costedCfgs()
	for i, cfg := range cfgs {
		measure(t, store, cfg, time.Duration(1+i)*time.Millisecond)
	}
	coord, err := NewCoordinator(cfgs, 2, CoordinatorConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	l, err := coord.Lease(LeaseRequest{Worker: "batcher", Capacity: -1, MaxTrials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Extra) != 2 {
		t.Fatalf("batch carried %d extras, want 2", len(l.Extra))
	}
	seenKeys := map[string]bool{l.Key: true}
	seenLeases := map[string]bool{l.LeaseID: true}
	grants := append([]Grant{{LeaseID: l.LeaseID, Key: l.Key, Config: l.Config}}, l.Extra...)
	for _, g := range grants {
		if seenKeys[g.Key] && g.Key != l.Key {
			t.Fatalf("batch granted key %s twice", g.Key)
		}
		if seenLeases[g.LeaseID] && g.LeaseID != l.LeaseID {
			t.Fatalf("batch reused lease id %s", g.LeaseID)
		}
		seenKeys[g.Key] = true
		seenLeases[g.LeaseID] = true
	}
	// The primary is the costliest fitting trial; extras fill cheapest-first.
	if grid.StaticCost(l.Config) < grid.StaticCost(l.Extra[0].Config) {
		t.Fatalf("primary grant cheaper than batched extra")
	}
	// Every grant journaled its own claim.
	claims := 0
	for _, rec := range store.Journal() {
		if rec.Kind == results.KindClaim {
			claims++
		}
	}
	if claims != 3 {
		t.Fatalf("journaled %d claims, want 3", claims)
	}
	// Complete one batched grant twice: first lands, second dedupes.
	g := l.Extra[0]
	rec := results.NewRecord(g.Config, fakeTrial(g.Config))
	r1, err := coord.Complete(CompleteRequest{LeaseID: g.LeaseID, Worker: "batcher", Key: g.Key, Record: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Accepted || r1.Duplicate {
		t.Fatalf("first completion = %+v, want accepted non-duplicate", r1)
	}
	r2, err := coord.Complete(CompleteRequest{LeaseID: g.LeaseID, Worker: "batcher", Key: g.Key, Record: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Accepted || !r2.Duplicate {
		t.Fatalf("repeat completion = %+v, want duplicate", r2)
	}
	if n := len(store.Get(g.Key)); n != 1 {
		t.Fatalf("store holds %d records for the batched key, want 1", n)
	}
}

// TestBareLeaseRequestGetsOneTrial pins the contract a client that completes
// one trial per lease rests on (the repo benchmark's direct loop: calls ==
// trials): a request that does not say how many trials it can hold gets one
// and an empty Extra, on /v1/lease and riding on a completion alike, however
// cheap every configuration is measured to be.
func TestBareLeaseRequestGetsOneTrial(t *testing.T) {
	store := results.NewMemStore()
	cfgs := backlogCfgs()
	for _, cfg := range cfgs {
		measure(t, store, cfg, time.Millisecond)
	}
	coord, err := NewCoordinator(cfgs, 4, CoordinatorConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	bare := LeaseRequest{Worker: "direct", Capacity: 1}
	calls := 0
	complete := func(l LeaseResponse, next *LeaseRequest) CompleteResponse {
		t.Helper()
		if l.Status != StatusLease || len(l.Extra) != 0 {
			t.Fatalf("bare lease request %d answered %q with %d extra trials", calls, l.Status, len(l.Extra))
		}
		resp, err := coord.Complete(CompleteRequest{LeaseID: l.LeaseID, Worker: "direct", Key: l.Key,
			Record: results.NewRecord(l.Config, fakeTrial(l.Config)), Next: next})
		if err != nil || !resp.Accepted || resp.Duplicate {
			t.Fatalf("complete: %+v, %v", resp, err)
		}
		calls++
		return resp
	}
	first, err := coord.Lease(bare)
	if err != nil {
		t.Fatal(err)
	}
	complete(*complete(first, &bare).Next, nil)
	for {
		l, err := coord.Lease(bare)
		if err != nil {
			t.Fatal(err)
		}
		if l.Status == StatusDone {
			break
		}
		complete(l, nil)
	}
	if st := coord.Status(); calls != st.Total || !st.Complete || st.Completions != st.Total {
		t.Fatalf("%d calls for %d trials: %+v", calls, st.Total, st)
	}
}

// TestLeaseCountRule is the table of how many trials a chunk-capable request
// is granted: filled to the quantum with measured-cheap trials, never past
// the protocol cap or the fair share, and alone whenever the primary's cost
// is unknown or already fills the quantum.
func TestLeaseCountRule(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name    string
		cfgs    int             // of backlogCfgs
		trials  int             // per configuration
		elapsed []time.Duration // per configuration, the last repeating; 0 leaves one unmeasured
		others  int             // workers that took a trial before the lease under test
		want    int
	}{
		{"1 ms configurations fill to the protocol cap", 4, 64, []time.Duration{ms}, 0, maxChunkTrials},
		{"5 ms configurations fill to the quantum", 4, 64, []time.Duration{5 * ms}, 0, 10},
		{"100 ms configurations get a lease each", 4, 64, []time.Duration{100 * ms}, 0, 1},
		{"unmeasured configurations run alone", 4, 64, []time.Duration{0}, 0, 1},
		{"a primary over the quantum gets no extras", 2, 64, []time.Duration{ms, 60 * ms}, 0, 1},
		{"extras skip an unmeasured configuration", 2, 4, []time.Duration{0, 4 * ms}, 0, 4},
		{"6 pending with 2 workers seen", 1, 7, []time.Duration{ms}, 1, 2},
		{"the last trial", 1, 1, []time.Duration{ms}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := results.NewMemStore()
			cfgs := backlogCfgs()[:tc.cfgs]
			measured := map[int]bool{} // by FixedOps, which tells backlogCfgs apart
			for i, cfg := range cfgs {
				if e := tc.elapsed[min(i, len(tc.elapsed)-1)]; e > 0 {
					measure(t, store, cfg, e)
					measured[cfg.FixedOps] = true
				}
			}
			coord, err := NewCoordinator(cfgs, tc.trials, CoordinatorConfig{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.others {
				if l, err := coord.Lease(LeaseRequest{Worker: fmt.Sprint("other", i)}); err != nil || l.Status != StatusLease {
					t.Fatalf("other %d: %+v, %v", i, l, err)
				}
			}
			l, err := coord.Lease(LeaseRequest{Worker: "w", Capacity: 1, MaxTrials: maxChunkTrials})
			if err != nil || l.Status != StatusLease {
				t.Fatalf("lease: %+v, %v", l, err)
			}
			if got := 1 + len(l.Extra); got != tc.want {
				t.Fatalf("lease carries %d trials, want %d", got, tc.want)
			}
			for _, g := range l.Extra {
				if !measured[g.Config.FixedOps] {
					t.Fatalf("lease carries an extra trial of an unmeasured configuration (%d ops)", g.Config.FixedOps)
				}
			}
			if n := len(store.Journal()) - tc.others; n != tc.want {
				t.Fatalf("journaled %d claims for a lease of %d", n, tc.want)
			}
		})
	}
}

// TestStatusETAAndWorkerRates pins the status surface: once completions
// flow, the coordinator reports a cost-model ETA for the remainder and
// per-worker completion rates under the injected clock.
func TestStatusETAAndWorkerRates(t *testing.T) {
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	coord, err := NewCoordinator(costedCfgs(), 1,
		CoordinatorConfig{Store: results.NewMemStore(), Clock: clock, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if st := coord.Status(); st.ETASeconds != 0 {
		t.Fatalf("ETA before any completion = %v, want 0 (unknown)", st.ETASeconds)
	}
	// Two workers each complete one trial, 2 seconds apart, each trial
	// having measured 2s of wall time.
	for i, name := range []string{"wa", "wb"} {
		l, err := coord.Lease(LeaseRequest{Worker: name, Capacity: -1})
		if err != nil || l.Status != StatusLease {
			t.Fatalf("lease %d: %v %v", i, l.Status, err)
		}
		now = now.Add(2 * time.Second)
		tr := fakeTrial(l.Config)
		tr.ElapsedNanos = int64(2 * time.Second)
		rec := results.NewRecord(l.Config, tr)
		if _, err := coord.Complete(CompleteRequest{
			LeaseID: l.LeaseID, Worker: name, Key: l.Key, Record: rec,
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := coord.Status()
	if st.Done != 2 || st.Complete {
		t.Fatalf("status = %+v, want 2 done incomplete", st)
	}
	if st.ETASeconds <= 0 {
		t.Fatalf("ETA after completions = %v, want > 0", st.ETASeconds)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("status names %d workers, want 2", len(st.Workers))
	}
	for _, w := range st.Workers {
		if w.Done != 1 {
			t.Fatalf("worker %s done=%d, want 1", w.Name, w.Done)
		}
		// wa's span: leased at t, completed at t+2s → 0.5/s. wb likewise.
		if w.RatePerSec <= 0 {
			t.Fatalf("worker %s rate=%v, want > 0", w.Name, w.RatePerSec)
		}
	}
	if st.Workers[0].Name >= st.Workers[1].Name {
		t.Fatalf("workers not sorted by name: %v", st.Workers)
	}
}

// TestBatchedWorkerDrains runs a real worker over HTTP and checks the
// queue-then-complete path converges with zero duplicates.
func TestBatchedWorkerDrains(t *testing.T) {
	store := results.NewMemStore()
	cfgs := tinyCfgs(3)
	coord, err := NewCoordinator(cfgs, 2, CoordinatorConfig{Store: store, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)
	w := newWorker(t, srv.URL, "batched", 7)
	w.Capacity = -1
	stats, err := w.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 6 {
		t.Fatalf("executed %d, want 6", stats.Executed)
	}
	st := coord.Status()
	if !st.Complete || st.Duplicates != 0 {
		t.Fatalf("batched drain did not converge cleanly: %+v", st)
	}
	for _, k := range store.Keys() {
		if n := len(store.Get(k)); n != 1 {
			t.Fatalf("key %s has %d records, want 1", k, n)
		}
	}
}

// mixedCfgs is the parity sweep: thread demands 1/2/4/8, two groups whose
// static costs tie, and a twin of the first config (same keys, so one
// completion finishes two tasks).
func mixedCfgs() []bench.WorkloadConfig {
	var cfgs []bench.WorkloadConfig
	for i, shape := range []struct{ threads, ops, keyRange int }{
		{1, 500, 1 << 10}, {2, 1000, 1 << 10}, {4, 2000, 1 << 10}, {8, 4000, 1 << 10},
		{2, 1000, 1 << 11}, {1, 3000, 1 << 10},
	} {
		c := bench.DefaultWorkload(shape.threads)
		c.FixedOps = shape.ops
		c.Duration = 0
		c.KeyRange = int64(shape.keyRange)
		c.Seed = uint64(100 + i)
		cfgs = append(cfgs, c)
	}
	return append(cfgs, cfgs[0])
}

// seededStore returns a store that already holds one measured record (of a
// seed outside the sweep) for the 2- and the 8-thread group of mixedCfgs, so
// those groups estimate by their mean and the rest by the calibrated prior.
func seededStore(t *testing.T, cfgs []bench.WorkloadConfig) *results.Store {
	t.Helper()
	store := results.NewMemStore()
	measure(t, store, cfgs[1], 3*time.Millisecond)
	measure(t, store, cfgs[3], time.Millisecond)
	return store
}

// sortLeaser is the reference scheduler of the parity test: the lease policy
// as it was before the group index — estimate every pending trial by
// hashing its config, stable-sort the backlog by descending estimate, walk
// it, from the cheap end for the rest of a chunk — over its own store, model,
// tasks, lease table and worker list. It shares nothing with grid.Queue,
// which is the point.
type sortLeaser struct {
	store   *results.Store
	model   *grid.CostModel
	ttl     time.Duration
	now     func() time.Time
	tasks   []*refTask
	leases  map[string]*refLease
	workers map[string]bool // seen
	seq     int
	done    int
}

type refState int

const (
	refPending refState = iota
	refLeased
	refDone
)

type refTask struct {
	key     string
	cfg     bench.WorkloadConfig
	state   refState
	leaseID string
}

type refLease struct {
	taskIdx int
	expires time.Time
}

func newSortLeaser(cfgs []bench.WorkloadConfig, trials int, store *results.Store, ttl time.Duration, now func() time.Time) *sortLeaser {
	r := &sortLeaser{store: store, model: grid.NewCostModel(store), ttl: ttl, now: now,
		leases: map[string]*refLease{}, workers: map[string]bool{}}
	_, expanded := grid.ExpandTasks(cfgs, trials, nil, 0)
	for _, t := range expanded {
		r.tasks = append(r.tasks, &refTask{key: results.KeyOf(t.Cfg), cfg: t.Cfg})
	}
	return r
}

func (r *sortLeaser) grant(i int, worker string) Grant {
	t := r.tasks[i]
	r.seq++
	id := fmt.Sprintf("L%d", r.seq)
	expires := r.now().Add(r.ttl)
	r.store.Append(results.NewClaim(t.key, worker, expires))
	t.state, t.leaseID = refLeased, id
	r.leases[id] = &refLease{taskIdx: i, expires: expires}
	return Grant{LeaseID: id, Key: t.key, Config: t.cfg, ExpiresUnixNano: expires.UnixNano()}
}

func (r *sortLeaser) lease(req LeaseRequest) LeaseResponse {
	for id, l := range r.leases {
		if l.expires.After(r.now()) {
			continue
		}
		delete(r.leases, id)
		if t := r.tasks[l.taskIdx]; t.state == refLeased && t.leaseID == id {
			t.state, t.leaseID = refPending, ""
		}
	}
	r.workers[req.Worker] = true
	if r.done == len(r.tasks) {
		return LeaseResponse{Status: StatusDone}
	}
	type pendingTask struct {
		idx      int
		est      float64
		measured bool
	}
	var pending []pendingTask
	for i, t := range r.tasks {
		if t.state == refPending {
			est, measured := r.model.EstimateGroup(results.GroupOf(t.cfg), grid.StaticCost(t.cfg))
			pending = append(pending, pendingTask{i, est, measured})
		}
	}
	if len(pending) == 0 {
		return LeaseResponse{Status: StatusWait}
	}
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].est > pending[j].est })
	fits := func(p pendingTask) bool {
		return req.Capacity <= 0 || r.tasks[p.idx].cfg.Threads <= req.Capacity
	}
	primary := slices.IndexFunc(pending, fits)
	fallback := primary < 0
	if fallback {
		primary = len(pending) - 1
	}
	// The count rule, worked out before anything is granted: from the cheap
	// end of the order, measured trials that fit, while the chunk's summed
	// estimate stays within the quantum and its count within what the
	// requester holds, the protocol cap and the fair share.
	chunk := []int{pending[primary].idx}
	if !fallback && pending[primary].measured {
		room := min(req.MaxTrials, maxChunkTrials, int(math.Ceil(float64(len(pending))/float64(2*len(r.workers)))))
		budget := float64(leaseQuantum) - pending[primary].est
		for i := len(pending) - 1; i > primary && len(chunk) < room; i-- {
			if p := pending[i]; fits(p) && p.measured {
				if p.est > budget {
					break // whatever is left of the order costs at least as much
				}
				chunk = append(chunk, p.idx)
				budget -= p.est
			}
		}
	}
	var grants []Grant
	for _, i := range chunk {
		grants = append(grants, r.grant(i, req.Worker))
	}
	g := grants[0]
	return LeaseResponse{Status: StatusLease, LeaseID: g.LeaseID, Key: g.Key, Config: g.Config,
		ExpiresUnixNano: g.ExpiresUnixNano, TTLMs: int(r.ttl / time.Millisecond), Extra: grants[1:]}
}

// complete takes the records of one completion in turn, each as the single
// completion it would have been.
func (r *sortLeaser) complete(req CompleteRequest) CompleteResponse {
	first := r.completeOne(req.Worker, req.Key, req.Record)
	resp := CompleteResponse{Accepted: first.Accepted, Duplicate: first.Duplicate, More: []CompleteAck{}}
	for _, m := range req.More {
		resp.More = append(resp.More, r.completeOne(req.Worker, m.Key, m.Record))
	}
	resp.Done = r.done == len(r.tasks)
	return resp
}

func (r *sortLeaser) completeOne(worker, key string, rec results.Record) CompleteAck {
	allDone, known := true, false
	for _, t := range r.tasks {
		if t.key == key {
			known = true
			allDone = allDone && t.state == refDone
		}
	}
	if !known {
		return CompleteAck{}
	}
	if allDone {
		return CompleteAck{Accepted: true, Duplicate: true}
	}
	rec.Worker = worker
	r.store.AppendIfAbsent(rec)
	r.model.ObserveGroup(results.GroupOf(rec.Config), grid.StaticCost(rec.Config), rec.ElapsedNanos)
	r.workers[worker] = true
	for _, t := range r.tasks {
		if t.key == key && t.state != refDone {
			t.state, t.leaseID = refDone, ""
			r.done++
		}
	}
	return CompleteAck{Accepted: true}
}

// TestLeaseGrantOrderMatchesFullSort drives the coordinator and the
// reference full-sort scheduler with one seeded script — mixed capacities,
// bare and chunk-capable lease requests, completions of one record and of
// several feeding the model mid-sweep (some riding a lease request, some
// late, some without a lease id), small and lease-expiring clock steps — and
// requires every answer, the claim journal and the final store to be
// identical.
func TestLeaseGrantOrderMatchesFullSort(t *testing.T) {
	if grants, batched, expiries, st := runLeaseParityScript(t, 12); grants < 20 || batched < 10 || expiries < 3 ||
		st.Reissued == 0 || st.Completions >= st.Executed+st.Duplicates {
		t.Fatalf("script too tame to prove anything: %d grants, %d batched, %d expiries, status %+v",
			grants, batched, expiries, st)
	}
}

// FuzzLeaseGrantOrder searches the script's seed space for a divergence
// between the queue's grants and the full sort's. A seed whose script is too
// tame to prove anything still has to agree; it just is not interesting.
func FuzzLeaseGrantOrder(f *testing.F) {
	for _, seed := range []int64{12, 4, 77, -5} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if grants, _, _, _ := runLeaseParityScript(t, seed); grants < 20 {
			t.Skip("tame script")
		}
	})
}

// runLeaseParityScript runs the parity script of one seed to the end of the
// sweep, failing t at the first divergence, and reports how much of the
// lease surface the script exercised.
func runLeaseParityScript(t *testing.T, seed int64) (grants, batched, expiries int, st StatusResponse) {
	t.Helper()
	const ttl = time.Second
	now := time.Unix(9000, 0)
	clock := func() time.Time { return now }
	cfgs := mixedCfgs()
	coordStore, refStore := seededStore(t, cfgs), seededStore(t, cfgs)
	coord, err := NewCoordinator(cfgs, 6, CoordinatorConfig{Store: coordStore, LeaseTTL: ttl, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	ref := newSortLeaser(cfgs, 6, refStore, ttl, clock)

	rng := rand.New(rand.NewSource(seed))
	var held []Grant // every grant ever made and not yet completed by the script, expired ones included
	sameLease := func(step int, got, want LeaseResponse) {
		t.Helper()
		got.RetryMs = 0 // the reference predates the cost-timed wait
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d: lease answers differ:\n got %+v\nwant %+v", seed, step, got, want)
		}
		if got.Status == StatusLease {
			grants++
			batched += len(got.Extra)
			held = append(held, Grant{LeaseID: got.LeaseID, Key: got.Key, Config: got.Config})
			held = append(held, got.Extra...)
		}
	}
	randomLease := func() LeaseRequest {
		return LeaseRequest{
			Worker:    []string{"wa", "wb", "wc"}[rng.Intn(3)],
			Capacity:  []int{1, 2, 4, 8, -1}[rng.Intn(5)],
			MaxTrials: []int{0, 1, 3, maxChunkTrials}[rng.Intn(4)],
		}
	}
	// completion takes a grant the script holds and turns it into the record
	// a worker would report for it.
	completion := func() Completion {
		i := rng.Intn(len(held))
		g := held[i]
		held = slices.Delete(held, i, i+1)
		tr := fakeTrial(g.Config)
		tr.ElapsedNanos = int64(time.Duration(1+rng.Intn(5000)) * time.Microsecond)
		c := Completion{LeaseID: g.LeaseID, Key: g.Key, Record: results.NewRecord(g.Config, tr)}
		if rng.Intn(6) == 0 {
			c.LeaseID = "" // as a spool replay sends it
		}
		return c
	}
	for step := 0; !coord.Status().Complete; step++ {
		if step > 5000 {
			t.Fatalf("seed %d: script did not finish the sweep: %+v", seed, coord.Status())
		}
		switch r := rng.Intn(12); {
		case r < 5:
			req := randomLease()
			got, err := coord.Lease(req)
			if err != nil {
				t.Fatal(err)
			}
			sameLease(step, got, ref.lease(req))
		case r < 10 && len(held) > 0:
			first := completion()
			req := CompleteRequest{LeaseID: first.LeaseID, Worker: "wa", Key: first.Key, Record: first.Record}
			if rng.Intn(2) == 0 {
				// A chunk: whatever else the script holds, up to a handful —
				// twins of one key and grants long expired among them.
				for n := rng.Intn(6); n > 0 && len(held) > 0; n-- {
					req.More = append(req.More, completion())
				}
			}
			if rng.Intn(3) == 0 {
				next := randomLease()
				req.Next = &next
			}
			got, err := coord.Complete(req)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.complete(req)
			next := got.Next
			got.Next = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: completion answers differ: got %+v want %+v", seed, step, got, want)
			}
			if req.Next != nil {
				if next == nil {
					t.Fatalf("seed %d step %d: accepted completion dropped its lease request", seed, step)
				}
				sameLease(step, *next, ref.lease(*req.Next))
			}
		case r < 11:
			now = now.Add(ttl / 10)
		default:
			now = now.Add(2 * ttl)
			expiries++
		}
	}
	if got, want := coordStore.Journal(), refStore.Journal(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: claim journals differ: %d vs %d claims", seed, len(got), len(want))
	}
	if got, want := coordStore.Records(), refStore.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: final stores differ: %d vs %d records", seed, len(got), len(want))
	}
	return grants, batched, expiries, coord.Status()
}

// backlogCfgs is the 24-group sweep behind the backlog pins.
func backlogCfgs() []bench.WorkloadConfig {
	var cfgs []bench.WorkloadConfig
	for i := 0; i < 24; i++ {
		c := bench.DefaultWorkload(1)
		c.FixedOps = 500 + 100*i
		c.Duration = 0
		c.KeyRange = 1 << 10
		c.Seed = uint64(100 + i)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// backlogCoordinator builds a 24-group coordinator with the given number of
// pending trials, reading the time from *now so callers can expire leases.
func backlogCoordinator(tb testing.TB, pending int, now *time.Time) *Coordinator {
	tb.Helper()
	cfgs := backlogCfgs()
	coord, err := NewCoordinator(cfgs, pending/len(cfgs), CoordinatorConfig{
		Store: results.NewMemStore(), LeaseTTL: time.Second,
		Clock: func() time.Time { return *now },
	})
	if err != nil {
		tb.Fatal(err)
	}
	return coord
}

// TestLeaseCostIndependentOfBacklog pins the scaling claim without timing
// anything: a grant allocates the same at 96 and at 6144 pending trials, and
// after construction neither Lease, Complete nor Status hashes a config.
func TestLeaseCostIndependentOfBacklog(t *testing.T) {
	allocs := func(pending int) float64 {
		now := time.Unix(100, 0)
		coord := backlogCoordinator(t, pending, &now)
		return testing.AllocsPerRun(60, func() {
			if l, err := coord.Lease(LeaseRequest{Worker: "w", Capacity: 1}); err != nil || l.Status != StatusLease {
				t.Fatalf("lease: %+v, %v", l, err)
			}
		})
	}
	if small, large := allocs(96), allocs(6144); small != large {
		t.Fatalf("Lease allocates %v times at 96 pending but %v at 6144", small, large)
	}

	now := time.Unix(100, 0)
	coord := backlogCoordinator(t, 96, &now)
	records := map[string]results.Record{}
	_, tasks := grid.ExpandTasks(backlogCfgs(), 96/24, nil, 0)
	for _, task := range tasks {
		tr := fakeTrial(task.Cfg)
		tr.ElapsedNanos = int64(time.Millisecond)
		rec := results.NewRecord(task.Cfg, tr)
		records[rec.Key] = rec
	}
	before := results.ConfigHashes()
	for i := 0; i < 96; i++ {
		l, err := coord.Lease(LeaseRequest{Worker: "w", Capacity: 1, MaxTrials: 1 + i%3})
		if err != nil {
			t.Fatal(err)
		}
		if l.Status != StatusLease {
			break
		}
		next := LeaseRequest{Worker: "w"}
		if _, err := coord.Complete(CompleteRequest{LeaseID: l.LeaseID, Worker: "w", Key: l.Key, Record: records[l.Key], Next: &next}); err != nil {
			t.Fatal(err)
		}
		coord.Status()
		now = now.Add(300 * time.Millisecond) // some leases expire and re-issue along the way
	}
	if st := coord.Status(); st.Executed < 48 || st.Reissued == 0 {
		t.Fatalf("hash-count drive did too little: %+v", st)
	}
	if n := results.ConfigHashes() - before; n != 0 {
		t.Fatalf("Lease/Complete/Status hashed %d configs after construction, want 0", n)
	}
}

// BenchmarkCoordinatorLease times one grant against a standing backlog: each
// iteration's lease has expired by the next, so the pending count holds and
// the reclaim-and-requeue a real expiry costs is inside the figure. The
// store is swapped for an empty one every 1024 grants: an in-memory claim
// journal growing with b.N would otherwise charge the figure for its
// reallocation, by an amount that depends on the iteration count.
func BenchmarkCoordinatorLease(b *testing.B) {
	for _, pending := range []int{768, 6144} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			now := time.Unix(100, 0)
			coord := backlogCoordinator(b, pending, &now)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if i%1024 == 0 {
					coord.store = results.NewMemStore()
				}
				if l, err := coord.Lease(LeaseRequest{Worker: "w", Capacity: 1}); err != nil || l.Status != StatusLease {
					b.Fatalf("lease: %+v, %v", l, err)
				}
				now = now.Add(2 * time.Second)
			}
		})
	}
}

// TestWaitRetryTracksOutstandingLease pins the cost-timed tail wait under an
// injected clock: with the only group measured at 40 ms, a fully leased
// sweep tells a waiting worker to come back when the younger lease should
// finish; just overdue it answers the 1 ms floor, further overdue it backs
// off by the overdue time, and it never exceeds the unmeasured answer.
func TestWaitRetryTracksOutstandingLease(t *testing.T) {
	now := time.Unix(7000, 0)
	clock := func() time.Time { return now }
	cfg := costedCfgs()[0]
	store := results.NewMemStore()
	prior := cfg
	prior.Seed = 7777
	tr := fakeTrial(prior)
	tr.ElapsedNanos = int64(40 * time.Millisecond)
	if err := store.Append(results.NewRecord(prior, tr)); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator([]bench.WorkloadConfig{cfg}, 2, CoordinatorConfig{Store: store, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	retry := func() int {
		t.Helper()
		l, err := coord.Lease(LeaseRequest{Worker: "idle"})
		if err != nil || l.Status != StatusWait {
			t.Fatalf("want wait, got %+v, %v", l, err)
		}
		return l.RetryMs
	}
	coord.Lease(LeaseRequest{Worker: "wa"})
	now = now.Add(15 * time.Millisecond)
	coord.Lease(LeaseRequest{Worker: "wb"}) // wa's lease is 15 ms old, wb's new
	for _, step := range []struct {
		advance time.Duration
		want    int
		why     string
	}{
		{10 * time.Millisecond, 15, "wa's lease is 25 ms into a 40 ms trial"},
		{14500 * time.Microsecond, 1, "wa has 0.5 ms left: rounded up to the floor"},
		{700 * time.Microsecond, 1, "wa is 0.2 ms overdue: the floor, not zero"},
		{4800 * time.Microsecond, 5, "wa is 5 ms overdue: wait as long again"},
		{5 * time.Millisecond, 5, "wb has 5 ms left and is now the soonest"},
		{10 * time.Second, 250, "both far overdue: today's bound"},
	} {
		now = now.Add(step.advance)
		if got := retry(); got != step.want {
			t.Fatalf("RetryMs = %d, want %d (%s)", got, step.want, step.why)
		}
	}

	// No measurement, no estimate: the bound alone, as before.
	for ttl, want := range map[time.Duration]int{0: 250, 300 * time.Millisecond: 37, 40 * time.Millisecond: 10} {
		coord, err := NewCoordinator([]bench.WorkloadConfig{cfg}, 1,
			CoordinatorConfig{Store: results.NewMemStore(), Clock: clock, LeaseTTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		coord.Lease(LeaseRequest{Worker: "wa"})
		if l, _ := coord.Lease(LeaseRequest{Worker: "idle"}); l.Status != StatusWait || l.RetryMs != want {
			t.Fatalf("unmeasured wait at ttl %v = %+v, want RetryMs %d", ttl, l, want)
		}
	}
}
