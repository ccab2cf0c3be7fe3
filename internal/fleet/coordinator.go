package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
)

// lease is one outstanding grant.
type lease struct {
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
	// Deadline is the runner-level default applied to every config that
	// sets none, exactly as grid.Runner would (ExpandTasks).
	Deadline time.Duration
	// Clock is the time source; nil means time.Now. Injectable so lease
	// expiry is testable without real waits.
	Clock func() time.Time
	// Logf, when set, receives one line per fleet event (grants, expiries,
	// completions, duplicates). Serialized under the coordinator lock.
	Logf func(format string, args ...any)
}

// Coordinator owns one sweep's lease layer: the sweep itself — which trials
// are pending, which runs next, what a completion does to the books — is a
// grid.Queue, the same one a local Run drains; what is the coordinator's own
// is the lease table with its TTL and expiry and the HTTP surface. All state
// transitions happen under one lock; completions go through the store's
// crash-safe append log, so a coordinator killed at any point restarts from
// the store with nothing lost — completed trials are skipped, incomplete ones
// re-issued (a lease lives only in memory and dies with its coordinator).
type Coordinator struct {
	ttl   time.Duration
	now   func() time.Time
	logFn func(string, ...any) // nil: logging off

	mu      sync.Mutex
	q       *grid.Queue
	leaseOf []string // per task: the lease it is out under, "" when none
	leases  map[string]*lease
	seq     int

	duplicates, reissued, completions int
	doneCh                            chan struct{}

	// workers is every worker name a lease request or an accepted completion
	// came from: the fair share of a chunk divides the backlog among them.
	workers map[string]bool
}

// leaseQuantum is the measured cost a lease is filled up to. What it buys is
// amortization: a round trip — a loopback or LAN RPC, two JSON passes, two
// log appends — costs a few hundred microseconds, so 50 ms of work under one
// puts it below a percent, two orders of magnitude above the round trip.
// What it risks is a crash: a worker killed mid-lease loses at most a
// quantum of finished work, three orders below the default 30 s LeaseTTL
// that the re-issue waits for anyway. Nothing in between argues for another
// value, so it is not a setting.
const leaseQuantum = 50 * time.Millisecond

// NewCoordinator expands cfgs×trials exactly as grid.Runner would
// (ExpandTasks: same tasks, same TrialKeys) and queues them over the store.
// Trials already in the store (including quarantines) are done before the
// first lease is granted — this is what makes a coordinator restart resume
// instead of re-running.
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
	eff, tasks := grid.ExpandTasks(cfgs, trials, nil, cc.Deadline)
	c := &Coordinator{
		ttl:     ttl,
		now:     now,
		logFn:   cc.Logf,
		q:       grid.NewQueue(eff, tasks, cc.Store),
		leaseOf: make([]string, len(tasks)),
		leases:  map[string]*lease{},
		doneCh:  make(chan struct{}),
		workers: map[string]bool{},
	}
	if c.q.Done() == c.q.Len() {
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
		// A lease in the table is its task's current one: a completion takes
		// the task's lease out with it.
		delete(c.leases, id)
		c.leaseOf[l.taskIdx] = ""
		c.q.Return(l.taskIdx)
		c.reissued++
		c.logf("fleet: lease %s (%s) from %s expired; re-issuing %s",
			id, short(c.q.Key(l.taskIdx)), l.worker, c.q.Label(l.taskIdx))
	}
}

// grantLocked attaches a fresh lease per taken task of one lease to worker.
func (c *Coordinator) grantLocked(chunk []int, worker string) []Grant {
	now := c.now()
	expires := now.Add(c.ttl)
	grants := make([]Grant, len(chunk))
	for k, i := range chunk {
		c.seq++
		id := "L" + strconv.Itoa(c.seq)
		key := c.q.Key(i)
		c.leaseOf[i] = id
		c.leases[id] = &lease{taskIdx: i, worker: worker, granted: now, expires: expires}
		if c.logFn != nil {
			c.logFn("fleet: leased %s (%s) to %s until %s",
				c.q.Label(i), short(key), worker, expires.Format(time.RFC3339))
		}
		grants[k] = Grant{LeaseID: id, Key: key, Config: c.q.Config(i), ExpiresUnixNano: expires.UnixNano()}
	}
	return grants
}

// Lease grants pending trials to the requesting worker. Which trials is the
// queue's decision: the primary grant is the costliest pending trial that
// fits the worker's advertised Capacity (grid.Queue.Take), and when nothing
// fits, the cheapest pending trial is granted anyway (capacity is advisory; a
// slow trial beats a stalled sweep). How many is this layer's (fillLocked): a
// request that can hold a chunk gets the cheapest fitting measured trials on
// top, up to leaseQuantum of work. When everything is leased-but-unfinished it
// answers StatusWait; when the sweep is complete, StatusDone. A grant writes
// nothing, so the error is always nil.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseLocked(req), nil
}

func (c *Coordinator) leaseLocked(req LeaseRequest) LeaseResponse {
	c.reclaimExpiredLocked()
	c.workers[req.Worker] = true
	if c.q.Done() == c.q.Len() {
		return LeaseResponse{Status: StatusDone}
	}
	pending := c.q.Pending()
	if pending == 0 {
		return LeaseResponse{Status: StatusWait, RetryMs: c.retryMsLocked()}
	}
	var chunk []int
	if first, fits := c.q.Take(req.Capacity); fits {
		chunk = c.fillLocked(first, req, pending)
	} else {
		// Nothing fits the advertised capacity: grant the cheapest pending
		// trial so an undersized worker makes slow progress instead of the
		// sweep waiting for a big worker that may never come.
		cheapest, _ := c.q.TakeCheapest(0)
		chunk = []int{cheapest}
		c.logf("fleet: no pending trial fits capacity %d from %s; granting cheapest",
			req.Capacity, req.Worker)
	}
	grants := c.grantLocked(chunk, req.Worker)
	return LeaseResponse{
		Status: StatusLease, LeaseID: grants[0].LeaseID, Key: grants[0].Key, Config: grants[0].Config,
		ExpiresUnixNano: grants[0].ExpiresUnixNano, TTLMs: int(c.ttl / time.Millisecond),
		Extra: grants[1:],
	}
}

// fillLocked sizes a lease by its work: to the primary grant first it adds
// the cheapest fitting pending trials of measured configurations while the
// lease's summed estimate stays within leaseQuantum, so that a round trip is
// shared by as many cheap trials as make it negligible and by no more. A
// primary that fills the quantum by itself — any trial worth a lease of its
// own — gets nothing added, and neither does one of an unmeasured
// configuration: its cost is not known yet, so its first seed runs alone and
// feeds the model. The count is further held to what the requester can hold
// (a request that does not say holds one), to the protocol cap, and to the
// fair share of the pending trials, ceil(pending / (2 × workers seen)) —
// guided self-scheduling: chunks shrink as the sweep runs down, so no worker
// sits on the tail while the others idle. pending counts the primary.
func (c *Coordinator) fillLocked(first int, req LeaseRequest, pending int) []int {
	share := 2 * len(c.workers)
	room := min(req.MaxTrials, maxChunkTrials, (pending+share-1)/share)
	est, measured := c.q.Estimate(first)
	if room <= 1 || !measured {
		return []int{first}
	}
	chunk := append(make([]int, 0, room), first)
	budget := float64(leaseQuantum) - est
	for len(chunk) < room {
		i, est, ok := c.q.TakeWithin(req.Capacity, budget)
		if !ok {
			break
		}
		chunk = append(chunk, i)
		budget -= est
	}
	return chunk
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
		mean, measured := c.q.Estimate(l.taskIdx)
		if !measured {
			continue
		}
		retry = min(retry, (time.Duration(mean) - now.Sub(l.granted)).Abs())
	}
	// Round up: a poll a fraction of a millisecond early costs a second one.
	return int(max(retry+time.Millisecond-1, time.Millisecond) / time.Millisecond)
}

// Renew extends the named leases. A false OK means one already expired (and
// its trial may be re-issued): the worker should finish anyway and let dedupe
// sort it out.
func (c *Coordinator) Renew(req RenewRequest) RenewResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked() // an expired lease is gone even if nobody leased since
	expires := c.now().Add(c.ttl)
	resp := RenewResponse{OK: true, ExpiresUnixNano: expires.UnixNano()}
	for _, id := range append([]string{req.LeaseID}, req.More...) {
		if l, ok := c.leases[id]; ok {
			l.expires = expires
		} else {
			resp = RenewResponse{OK: false}
		}
	}
	return resp
}

// Complete accepts the finished trials of one completion request, each as a
// completion of its own. Identity is the key, not the lease: a completion
// whose lease expired (or that arrives twice via a duplicated RPC) is still
// the same content-addressed trial, so the first one in wins and the rest
// are acknowledged as duplicates. The records are persisted — one append,
// AppendAllIfAbsent — before any trial is marked done: a crash between the
// two at worst re-issues already-stored trials, whose completions then
// dedupe; the store never ends up with two records for one key.
//
// A request carrying Next is then served that lease request under the same
// lock hold, duplicates included — the worker needs its next trial either
// way — unless a record was rejected.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completions++
	resp, err := c.completeLocked(req)
	if err != nil || req.Next == nil || !resp.Accepted ||
		slices.ContainsFunc(resp.More, func(a CompleteAck) bool { return !a.Accepted }) {
		return resp, err
	}
	next := c.leaseLocked(*req.Next)
	resp.Next = &next
	return resp, nil
}

func (c *Coordinator) completeLocked(req CompleteRequest) (CompleteResponse, error) {
	// Each record is filed under the key it was completed as, with its worker.
	recs := make([]results.Record, 1+len(req.More))
	recs[0], recs[0].Key = req.Record, req.Key
	for k := range req.More {
		recs[1+k], recs[1+k].Key = req.More[k].Record, req.More[k].Key
	}
	for k := range recs {
		recs[k].Worker = req.Worker
	}
	tasks, err := c.q.FinishAll(recs)
	if err != nil {
		return CompleteResponse{}, fmt.Errorf("fleet: persisting completion: %w", err)
	}
	acks := make([]CompleteAck, len(recs))
	for k := range recs {
		acks[k] = c.ackLocked(req.Worker, recs[k].Key, tasks[k])
	}
	done := c.q.Done() == c.q.Len()
	if done {
		select {
		case <-c.doneCh:
		default:
			close(c.doneCh)
		}
	}
	return CompleteResponse{Accepted: acks[0].Accepted, Duplicate: acks[0].Duplicate, More: acks[1:], Done: done}, nil
}

// ackLocked enters in the coordinator's own books what the queue did with one
// record of a completion: task is the task it finished, -1 when none.
func (c *Coordinator) ackLocked(worker, key string, task int) CompleteAck {
	idxs := c.q.Tasks(key)
	switch {
	case idxs == nil:
		c.logf("fleet: rejecting completion of unknown key %s from %s", key, worker)
		return CompleteAck{Accepted: false}
	case task < 0:
		c.duplicates++
		c.logf("fleet: duplicate completion of %s from %s (dedupe)", short(key), worker)
		return CompleteAck{Accepted: true, Duplicate: true}
	}
	c.workers[worker] = true
	for _, i := range idxs {
		// Whatever lease a task under the key is out under now — the
		// completing worker's own, or a re-issue's while this completion
		// arrived late or under a superseded lease — ends with the
		// task, so Status.Leased, Renew and the wait estimate stop counting it.
		if id := c.leaseOf[i]; id != "" {
			delete(c.leases, id)
			c.leaseOf[i] = ""
		}
	}
	if c.logFn != nil {
		c.logFn("fleet: completed %s (%s) from %s [%d/%d]",
			c.q.Label(task), short(key), worker, c.q.Done(), c.q.Len())
	}
	return CompleteAck{Accepted: true}
}

// Done returns a channel closed when every trial is complete.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Status snapshots the observable state.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	executed, cached, quarantined := c.q.Counts()
	return StatusResponse{
		Total: c.q.Len(), Done: c.q.Done(),
		Executed: executed, Cached: cached, Quarantined: quarantined,
		Leased:     len(c.leases),
		Duplicates: c.duplicates, Reissued: c.reissued, Completions: c.completions,
		Complete: c.q.Done() == c.q.Len(),
	}
}

// Summaries returns the queue's per-config summaries — the same layout, from
// the same code, as Runner.Run returns.
func (c *Coordinator) Summaries() []results.Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q.Summaries()
}

// Handler returns the coordinator's HTTP surface:
//
//	POST /v1/lease    LeaseRequest    -> LeaseResponse
//	POST /v1/renew    RenewRequest    -> RenewResponse
//	POST /v1/complete CompleteRequest -> CompleteResponse (a lease's records; with Next set, the worker's next lease)
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
	return mux
}

// decode reads a JSON request body (POST only), answering the error itself
// when the body is malformed. The body is read whole into a buffer of its
// declared length: a completion carries a chunk's records, some 85 KB, which
// a streaming decoder would reach by doubling its buffer eight times.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	const limit = 16 << 20
	var body bytes.Buffer
	if r.ContentLength > 0 {
		body.Grow(int(min(r.ContentLength, limit)) + bytes.MinRead)
	}
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		err = json.Unmarshal(body.Bytes(), into)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// reply writes a JSON response, mapping coordinator-side errors (store
// failures) to 500 so clients retry.
func reply(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
