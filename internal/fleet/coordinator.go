package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
)

// taskState tracks one expanded trial through the lease lifecycle.
type taskState int

const (
	taskPending taskState = iota
	taskLeased
	taskDone
)

// fleetTask is one expanded trial: its content address, effective config,
// and position in the summary layout. cfgIdx is also its cfgGroup.
type fleetTask struct {
	key              string
	cfg              bench.WorkloadConfig
	cfgIdx, trialIdx int
	state            taskState
	leaseID          string
}

// cfgGroup is one input configuration as the scheduler sees it. Its seeds
// share a GroupKey, a StaticCost and a thread demand, so those are computed
// once here and a grant decision never hashes a config; the group's pending
// trials wait in a queue of their own.
type cfgGroup struct {
	key     string  // results.GroupOf: the cost model's index
	static  float64 // grid.StaticCost
	threads int
	label   string // results.Label, for log lines
	// pending holds the task indices of the group's pending trials in
	// ascending order. Costly-first grants pop the head and cheap batch
	// extras the tail, which is where a stable sort of the whole backlog by
	// descending estimate would find them: the estimate is per group, so
	// ties within a group fall in task order.
	pending []int
}

func (g *cfgGroup) head() int { return g.pending[0] }
func (g *cfgGroup) tail() int { return g.pending[len(g.pending)-1] }

func (g *cfgGroup) popHead() int {
	i := g.pending[0]
	g.pending = g.pending[1:]
	return i
}

func (g *cfgGroup) popTail() int {
	i := g.tail()
	g.pending = g.pending[:len(g.pending)-1]
	return i
}

// requeue returns an expired lease's task to its place in the order.
func (g *cfgGroup) requeue(i int) {
	at, _ := slices.BinarySearch(g.pending, i)
	g.pending = slices.Insert(g.pending, at, i)
}

// drop removes a pending task that finished without being granted.
func (g *cfgGroup) drop(i int) {
	at, _ := slices.BinarySearch(g.pending, i)
	g.pending = slices.Delete(g.pending, at, at+1)
}

// lease is one outstanding grant.
type lease struct {
	id      string
	taskIdx int
	worker  string
	granted time.Time
	expires time.Time
}

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// Store caches, persists, and dedupes trials; required. Trials whose
	// keys are already present are marked done at construction (resume).
	Store *results.Store
	// LeaseTTL bounds how long a worker may hold a trial without renewing;
	// <= 0 means 30s. Too short re-issues slow trials (harmless — dedupe —
	// but wasteful); too long delays recovery from a dead worker by the
	// whole TTL.
	LeaseTTL time.Duration
	// Deadline/Faults are the runner-level defaults applied to every config
	// before key computation, exactly as grid.Runner would (ExpandTasks).
	Deadline time.Duration
	Faults   []bench.FaultSpec
	// Clock is the time source; nil means time.Now. Injectable so lease
	// expiry is testable without real waits.
	Clock func() time.Time
	// Cost is the scheduling cost model; nil builds one seeded from the
	// store's measured elapsed times. The coordinator grants costliest-
	// fitting-first (the distributed face of the grid runner's LPT policy)
	// and feeds every completion's measured wall time back into the model.
	Cost *grid.CostModel
	// Logf, when set, receives one line per fleet event (grants, expiries,
	// completions, duplicates). Serialized under the coordinator lock.
	Logf func(format string, args ...any)
}

// Coordinator owns one sweep: the expanded trial list, the lease table, and
// the store. All state transitions happen under one lock; persistence goes
// through the store's crash-safe append log, so a coordinator killed at any
// point restarts from the store with nothing lost — completed trials are
// skipped, incomplete ones re-issued (their stale claims are journal
// entries, not commitments).
type Coordinator struct {
	store *results.Store
	ttl   time.Duration
	now   func() time.Time
	logFn func(string, ...any) // nil: logging off
	model *grid.CostModel

	mu     sync.Mutex
	eff    []bench.WorkloadConfig
	trials int
	tasks  []*fleetTask
	groups []cfgGroup // indexed by cfgIdx
	est    []float64  // per-group estimates of the request being served
	byKey  map[string][]int
	leases map[string]*lease
	seq    int

	executed, cached, quarantined int
	duplicates, reissued          int
	doneCount                     int
	granted                       int
	doneCh                        chan struct{}

	startedAt time.Time
	// completedCost sums the model's estimate of every freshly completed
	// trial; divided by wall time since startedAt it is the fleet's
	// observed throughput (in estimated-cost units per nanosecond), the
	// denominator of the status ETA.
	completedCost float64
	workers       map[string]*workerStats
}

// workerStats is the coordinator's per-worker completion ledger.
type workerStats struct {
	done      int
	firstSeen time.Time
	lastDone  time.Time
}

// maxBatchGrants caps how many trials one lease RPC may carry regardless of
// the request's MaxTrials — a runaway batch would concentrate re-issue risk
// on one worker's crash.
const maxBatchGrants = 8

// NewCoordinator expands cfgs×trials with the runner's seed-chain convention
// and builds the coordinator over the store. Trials already in the store
// (including quarantines) are done before the first lease is granted — this
// is what makes a coordinator restart resume instead of re-running.
func NewCoordinator(cfgs []bench.WorkloadConfig, trials int, cc CoordinatorConfig) (*Coordinator, error) {
	if cc.Store == nil {
		return nil, fmt.Errorf("fleet: coordinator requires a store")
	}
	ttl := cc.LeaseTTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	now := cc.Clock
	if now == nil {
		now = time.Now
	}
	model := cc.Cost
	if model == nil {
		model = grid.NewCostModel(cc.Store)
	}
	eff, expanded := grid.ExpandTasks(cfgs, trials, cc.Faults, cc.Deadline)
	c := &Coordinator{
		store:     cc.Store,
		ttl:       ttl,
		now:       now,
		logFn:     cc.Logf,
		model:     model,
		eff:       eff,
		trials:    trials,
		groups:    make([]cfgGroup, len(eff)),
		est:       make([]float64, len(eff)),
		byKey:     map[string][]int{},
		leases:    map[string]*lease{},
		doneCh:    make(chan struct{}),
		startedAt: now(),
		workers:   map[string]*workerStats{},
	}
	for i, cfg := range eff {
		c.groups[i] = cfgGroup{
			key:     results.GroupOf(cfg),
			static:  grid.StaticCost(cfg),
			threads: cfg.Threads,
			label:   results.Label(cfg),
		}
	}
	for _, t := range expanded {
		ft := &fleetTask{
			key:    results.KeyOf(t.Cfg),
			cfg:    t.Cfg,
			cfgIdx: t.CfgIdx, trialIdx: t.TrialIdx,
		}
		idx := len(c.tasks)
		c.tasks = append(c.tasks, ft)
		c.byKey[ft.key] = append(c.byKey[ft.key], idx)
		if recs := c.store.Get(ft.key); len(recs) > 0 {
			ft.state = taskDone
			c.doneCount++
			if recs[0].Quarantined {
				c.quarantined++
			} else {
				c.cached++
			}
			continue
		}
		g := &c.groups[ft.cfgIdx]
		g.pending = append(g.pending, idx)
	}
	if c.doneCount == len(c.tasks) {
		close(c.doneCh)
	}
	return c, nil
}

// logf forwards one event line to the configured logger. The per-trial
// paths (grant, completion) test logFn themselves so that a quiet
// coordinator does not even box the arguments.
func (c *Coordinator) logf(format string, args ...any) {
	if c.logFn != nil {
		c.logFn(format, args...)
	}
}

// reclaimExpiredLocked returns every expired lease's trial to the pending
// pool. Called lazily on each lease request — there is no background timer
// to race with, which keeps expiry deterministic under an injected clock.
func (c *Coordinator) reclaimExpiredLocked() {
	now := c.now()
	for id, l := range c.leases {
		if l.expires.After(now) {
			continue
		}
		delete(c.leases, id)
		t := c.tasks[l.taskIdx]
		if t.state == taskLeased && t.leaseID == id {
			t.state = taskPending
			t.leaseID = ""
			g := &c.groups[t.cfgIdx]
			g.requeue(l.taskIdx)
			c.reissued++
			c.logf("fleet: lease %s (%s) from %s expired; re-issuing %s",
				id, short(t.key), l.worker, g.label)
		}
	}
}

// grantLocked journals the claim for task i and attaches a fresh lease to
// worker; caller holds mu and has taken the task off its group's queue.
func (c *Coordinator) grantLocked(i int, worker string) (Grant, error) {
	t := c.tasks[i]
	c.seq++
	id := "L" + strconv.Itoa(c.seq)
	now := c.now()
	expires := now.Add(c.ttl)
	// Journal the claim before answering: if the append fails the
	// store is broken and granting would strand the trial's result.
	if err := c.store.Append(results.NewClaim(t.key, worker, expires)); err != nil {
		c.groups[t.cfgIdx].requeue(i)
		return Grant{}, fmt.Errorf("fleet: journaling claim: %w", err)
	}
	t.state = taskLeased
	t.leaseID = id
	c.leases[id] = &lease{id: id, taskIdx: i, worker: worker, granted: now, expires: expires}
	c.granted++
	if c.logFn != nil {
		c.logFn("fleet: leased %s (%s) to %s until %s",
			c.groups[t.cfgIdx].label, short(t.key), worker, expires.Format(time.RFC3339))
	}
	return Grant{LeaseID: id, Key: t.key, Config: t.cfg, ExpiresUnixNano: expires.UnixNano()}, nil
}

// fits reports whether a group's thread demand fits an advertised capacity
// (<= 0 means unlimited).
func (g *cfgGroup) fits(capacity int) bool {
	return capacity <= 0 || g.threads <= capacity
}

// Lease grants pending trials to the requesting worker, journaling each
// claim. The grant policy is the distributed face of the grid runner's LPT
// scheduler: the primary grant is the costliest pending trial that fits the
// worker's advertised Capacity, so the biggest remaining work starts
// earliest on the workers that can run it — the makespan argument. When
// nothing fits the capacity, the cheapest pending trial is granted anyway
// (capacity is advisory; a slow trial beats a stalled sweep). With
// MaxTrials > 1 the response also batches up to maxBatchGrants of the
// cheapest fitting trials as Extra, amortizing lease round-trips over
// trials whose RPC cost rivals their runtime. When everything is
// leased-but-unfinished it answers StatusWait; when the sweep is complete,
// StatusDone.
//
// The order is that of a stable sort of every pending trial by descending
// estimate — ties in expansion order, deterministic given the same model
// state — but no such sort is made: a request costs one estimate per
// configuration group and no hashing, whatever the backlog.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseLocked(req)
}

func (c *Coordinator) leaseLocked(req LeaseRequest) (LeaseResponse, error) {
	c.reclaimExpiredLocked()
	if ws := c.workers[req.Worker]; ws == nil {
		c.workers[req.Worker] = &workerStats{firstSeen: c.now()}
	}
	if c.doneCount == len(c.tasks) {
		return LeaseResponse{Status: StatusDone}, nil
	}
	// Estimate every group with pending trials once per request: the model
	// shifts as completions feed it, so ordering is computed live rather
	// than pinned at expansion. The head of the descending order among the
	// groups that fit is the costliest, ties to the lowest task index.
	primary, backlog := -1, false
	for gi := range c.groups {
		g := &c.groups[gi]
		if len(g.pending) == 0 {
			continue
		}
		backlog = true
		e, _ := c.estimate(g)
		c.est[gi] = e
		if !g.fits(req.Capacity) {
			continue
		}
		if p := primary; p < 0 || e > c.est[p] || (e == c.est[p] && g.head() < c.groups[p].head()) {
			primary = gi
		}
	}
	if !backlog {
		return LeaseResponse{Status: StatusWait, RetryMs: c.retryMsLocked()}, nil
	}
	fallback := primary < 0
	var first int
	if fallback {
		// Nothing fits the advertised capacity: grant the cheapest pending
		// trial (last in descending order) so an undersized worker makes
		// slow progress instead of the sweep waiting for a big worker that
		// may never come.
		first = c.groups[c.cheapestLocked(-1)].popTail()
		c.logf("fleet: no pending trial fits capacity %d from %s; granting cheapest",
			req.Capacity, req.Worker)
	} else {
		first = c.groups[primary].popHead()
	}
	resp := LeaseResponse{Status: StatusLease}
	g, err := c.grantLocked(first, req.Worker)
	if err != nil {
		return LeaseResponse{}, err
	}
	resp.LeaseID, resp.Key, resp.Config, resp.ExpiresUnixNano = g.LeaseID, g.Key, g.Config, g.ExpiresUnixNano
	if req.MaxTrials > 1 && !fallback {
		extra := req.MaxTrials - 1
		if extra > maxBatchGrants {
			extra = maxBatchGrants
		}
		// Fill the batch cheapest-first (from the tail of the descending
		// order): batching exists to amortize round-trips over cheap
		// trials, while expensive ones keep getting dedicated leases that
		// renew independently.
		for ; extra > 0; extra-- {
			cheapest := c.cheapestLocked(req.Capacity)
			if cheapest < 0 {
				break
			}
			g, err := c.grantLocked(c.groups[cheapest].popTail(), req.Worker)
			if err != nil {
				return LeaseResponse{}, err
			}
			resp.Extra = append(resp.Extra, g)
		}
	}
	return resp, nil
}

// estimate is the cost model's current estimate of one trial of the group,
// and whether it is the group's measured mean in nanoseconds.
func (c *Coordinator) estimate(g *cfgGroup) (float64, bool) {
	return c.model.EstimateGroup(g.key, g.static)
}

// cheapestLocked returns the group holding the last trial of the descending
// order among the groups that fit capacity — the lowest estimate (c.est,
// filled by the request being served), ties to the highest task index — or
// -1 when none has a pending trial.
func (c *Coordinator) cheapestLocked(capacity int) int {
	best := -1
	for gi := range c.groups {
		g := &c.groups[gi]
		if len(g.pending) == 0 || !g.fits(capacity) {
			continue
		}
		if best < 0 || c.est[gi] < c.est[best] || (c.est[gi] == c.est[best] && g.tail() > c.groups[best].tail()) {
			best = gi
		}
	}
	return best
}

// retryMsLocked is the poll delay for a worker that finds every remaining
// trial leased. What it waits for is a completion (then the sweep is done)
// or an expiry (then a trial is pending again), so the answer is the time
// until the soonest outstanding lease should finish: its group's measured
// mean less the lease's age. A lease that is overdue counts for as long as
// it has been overdue, so polls on a stuck or dead worker's lease back off
// geometrically instead of spinning at the floor. The result is clamped to
// [1 ms, min(ttl/8, 250 ms)], and it is that upper bound — all a
// coordinator without measurements can say — while no outstanding lease
// belongs to a measured group.
func (c *Coordinator) retryMsLocked() int {
	retry := min(max(c.ttl/8, 10*time.Millisecond), 250*time.Millisecond).Truncate(time.Millisecond)
	now := c.now()
	for _, l := range c.leases {
		mean, measured := c.estimate(&c.groups[c.tasks[l.taskIdx].cfgIdx])
		if !measured {
			continue
		}
		retry = min(retry, (time.Duration(mean) - now.Sub(l.granted)).Abs())
	}
	// Round up: a poll a fraction of a millisecond early costs a second one.
	return int(max(retry+time.Millisecond-1, time.Millisecond) / time.Millisecond)
}

// Renew extends a held lease. A false OK means the lease already expired
// (and the trial may be re-issued): the worker should finish anyway and let
// dedupe sort it out.
func (c *Coordinator) Renew(req RenewRequest) RenewResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked() // an expired lease is gone even if nobody leased since
	l, ok := c.leases[req.LeaseID]
	if !ok {
		return RenewResponse{OK: false}
	}
	l.expires = c.now().Add(c.ttl)
	return RenewResponse{OK: true, ExpiresUnixNano: l.expires.UnixNano()}
}

// Complete accepts a finished trial. Identity is the key, not the lease: a
// completion whose lease expired (or that arrives twice via a duplicated
// RPC) is still the same content-addressed trial, so the first one in wins
// and the rest are acknowledged as duplicates. The record is persisted
// through AppendIfAbsent before the trial is marked done — a crash between
// the two at worst re-issues an already-stored trial, whose completion then
// dedupes; the store never ends up with two records for one key.
//
// An accepted request carrying Next is then served that lease request under
// the same lock hold, duplicates included: the worker needs its next trial
// either way.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.completeLocked(req)
	if err != nil || !resp.Accepted || req.Next == nil {
		return resp, err
	}
	next, err := c.leaseLocked(*req.Next)
	if err != nil {
		// The completion is stored; failing the RPC would only have it
		// retried into a duplicate. Leave the grant out and let the worker
		// meet the journal error on /v1/lease.
		c.logf("fleet: lease riding on completion from %s failed: %v", req.Worker, err)
		return resp, nil
	}
	resp.Next = &next
	return resp, nil
}

func (c *Coordinator) completeLocked(req CompleteRequest) (CompleteResponse, error) {
	idxs, ok := c.byKey[req.Key]
	if !ok {
		c.logf("fleet: rejecting completion of unknown key %s from %s", req.Key, req.Worker)
		return CompleteResponse{Accepted: false}, nil
	}
	allDone := true
	for _, i := range idxs {
		if c.tasks[i].state != taskDone {
			allDone = false
		}
	}
	if allDone {
		c.duplicates++
		c.logf("fleet: duplicate completion of %s from %s (dedupe)", short(req.Key), req.Worker)
		return CompleteResponse{Accepted: true, Duplicate: true, Done: c.doneCount == len(c.tasks)}, nil
	}
	rec := req.Record
	rec.Worker = req.Worker
	added, err := c.store.AppendIfAbsent(rec)
	if err != nil {
		return CompleteResponse{}, fmt.Errorf("fleet: persisting completion: %w", err)
	}
	// Feed the completion into the cost model and the throughput ledger
	// before marking done, so the ETA's remaining-cost sum and completed-
	// cost accumulator never both count the same trial. Tasks sharing a key
	// share a normalized config, hence a group.
	g := &c.groups[c.tasks[idxs[0]].cfgIdx]
	est, _ := c.estimate(g)
	c.completedCost += est
	elapsed := rec.ElapsedNanos
	if elapsed == 0 {
		elapsed = rec.Trial.ElapsedNanos
	}
	c.model.ObserveGroup(g.key, g.static, elapsed)
	ws := c.workers[req.Worker]
	if ws == nil {
		ws = &workerStats{firstSeen: c.now()}
		c.workers[req.Worker] = ws
	}
	ws.done++
	ws.lastDone = c.now()
	for _, i := range idxs {
		t := c.tasks[i]
		switch t.state {
		case taskDone:
			continue
		case taskPending:
			// Finished without a live lease (spool replay after expiry, or a
			// twin task under the same key): it is no longer grantable.
			c.groups[t.cfgIdx].drop(i)
		case taskLeased:
			// Whatever lease the task is under now — the completing worker's
			// own, or a re-issue's while this completion arrived by spool
			// replay or under a superseded lease — ends with the task, so
			// Status.Leased, Renew and the wait estimate stop counting it.
			delete(c.leases, t.leaseID)
		}
		t.state = taskDone
		t.leaseID = ""
		c.doneCount++
	}
	switch {
	case !added:
		// The key was already in the store (it arrived by merge or a
		// concurrent writer) but the task was not yet marked done — count
		// it as cached, like a startup hit.
		c.cached++
	case rec.Quarantined:
		c.quarantined++
	default:
		c.executed++
	}
	if c.logFn != nil {
		c.logFn("fleet: completed %s (%s) from %s [%d/%d]",
			g.label, short(req.Key), req.Worker, c.doneCount, len(c.tasks))
	}
	done := c.doneCount == len(c.tasks)
	if done {
		select {
		case <-c.doneCh:
		default:
			close(c.doneCh)
		}
	}
	return CompleteResponse{Accepted: true, Done: done}, nil
}

// Done returns a channel closed when every trial is complete.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Granted reports the cumulative number of leases granted over the
// coordinator's lifetime (primary and batch alike). `epochgrid -serve`
// polls it to detect that no worker ever showed up and fall back to
// draining locally.
func (c *Coordinator) Granted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.granted
}

// Status snapshots the observable state, including the cost-model ETA:
// remaining estimated cost over observed completion throughput. Both sides
// of that division are model-unit sums, so the units cancel and the ratio
// is wall seconds — no calibration needed beyond what the model learned.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := StatusResponse{
		Total: len(c.tasks), Done: c.doneCount,
		Executed: c.executed, Cached: c.cached, Quarantined: c.quarantined,
		Leased:     len(c.leases),
		Duplicates: c.duplicates, Reissued: c.reissued,
		Complete: c.doneCount == len(c.tasks),
	}
	if !resp.Complete && c.completedCost > 0 {
		wall := c.now().Sub(c.startedAt)
		if wall > 0 {
			for gi := range c.groups {
				c.est[gi], _ = c.estimate(&c.groups[gi])
			}
			var remaining float64
			for _, t := range c.tasks {
				if t.state != taskDone {
					remaining += c.est[t.cfgIdx]
				}
			}
			throughput := c.completedCost / wall.Seconds() // cost units per wall second
			if throughput > 0 {
				resp.ETASeconds = remaining / throughput
			}
		}
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := c.workers[name]
		w := WorkerStatus{Name: name, Done: ws.done}
		if span := ws.lastDone.Sub(ws.firstSeen); span > 0 && ws.done > 0 {
			w.RatePerSec = float64(ws.done) / span.Seconds()
		}
		resp.Workers = append(resp.Workers, w)
	}
	return resp
}

// Summaries assembles per-config summaries from the store, in input-config
// order with trials in seed-chain order — the same layout Runner.Run
// returns, so `epochgrid -serve` emits exactly what the single-process sweep
// would. Quarantined trials are excluded; a config with no successful trial
// yields a zero summary carrying the config.
func (c *Coordinator) Summaries() []bench.Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	perCfg := make([][]bench.TrialResult, len(c.eff))
	for _, t := range c.tasks {
		recs := c.store.Get(t.key)
		if len(recs) == 0 || recs[0].Quarantined {
			continue
		}
		perCfg[t.cfgIdx] = append(perCfg[t.cfgIdx], recs[0].Trial)
	}
	out := make([]bench.Summary, len(c.eff))
	for i, cfg := range c.eff {
		if len(perCfg[i]) == 0 {
			out[i] = bench.Summary{Cfg: cfg}
			continue
		}
		out[i] = bench.SummarizeTrials(cfg, perCfg[i])
	}
	return out
}

// Handler returns the coordinator's HTTP surface:
//
//	POST /v1/lease    LeaseRequest    -> LeaseResponse
//	POST /v1/renew    RenewRequest    -> RenewResponse
//	POST /v1/complete CompleteRequest -> CompleteResponse (and, with Next set, the worker's next lease)
//	GET  /v1/status                   -> StatusResponse
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := c.Lease(req)
		reply(w, resp, err)
	})
	mux.HandleFunc("/v1/renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if !decode(w, r, &req) {
			return
		}
		reply(w, c.Renew(req), nil)
	})
	mux.HandleFunc("/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := c.Complete(req)
		reply(w, resp, err)
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		reply(w, c.Status(), nil)
	})
	return mux
}

// decode reads a JSON request body (POST only), answering the error itself
// when the body is malformed.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	if err := json.NewDecoder(body).Decode(into); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// reply writes a JSON response, mapping coordinator-side errors
// (store/journal failures) to 500 so clients retry.
func reply(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
