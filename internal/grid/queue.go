package grid

import (
	"math"
	"slices"

	"repro/internal/bench"
	"repro/internal/results"
)

// Queue is the one work queue of a sweep, behind the local runner and the
// fleet coordinator alike: a spec expands to tasks, the tasks sit here, a
// dispatcher takes the costliest pending trial that fits its capacity
// (expansion order when serial), and hands back one record that is appended
// to the store once per key. Which pending trial runs next, and what a
// finished trial does to the sweep's books, are decided here and nowhere
// else; tokens, leases and transports stay with the dispatcher.
//
// A Queue does not lock itself: the coordinator's mutex and the runner's
// in-process source's already serialize every call.
type Queue struct {
	store *results.Store // nil: nothing is cacheable
	model *CostModel     // nil: expansion order (every estimate is equal)
	eff   []bench.WorkloadConfig
	tasks []TrialTask
	slots []slot        // parallel to tasks
	conf  []queuedGroup // indexed by CfgIdx
	byKey map[string][]int

	pending, done            int
	executed, cached, failed int
}

type taskState uint8

const (
	taskPending taskState = iota
	taskTaken
	taskDone
)

// slot is what the queue knows about one task beyond its config.
type slot struct {
	key   string
	state taskState
	// ok marks a finished task that has a result; failure is the stored
	// reason of one that finished quarantined.
	ok      bool
	failure string
	trial   bench.TrialResult
}

// queuedGroup is one input configuration as the grant policy sees it. Its
// seeds share a GroupKey, a StaticCost, a thread demand and a label, so
// those are computed once (when its first pending trial is queued: a fully
// cached configuration costs no hash) and no grant decision hashes a config.
type queuedGroup struct {
	key     string  // results.GroupOf: the cost model's index
	static  float64 // StaticCost
	threads int
	label   string // results.Label, for log lines and errors
	// pending holds the task indices of the group's pending trials in
	// ascending order. Costly-first takes pop the head and cheap-first takes
	// the tail, which is where a stable sort of the whole backlog by
	// descending estimate would find them: the estimate is per group, so
	// ties within a group fall in task order.
	pending []int
	// open counts the group's unfinished trials, pending and taken.
	open int
}

func (g *queuedGroup) head() int { return g.pending[0] }
func (g *queuedGroup) tail() int { return g.pending[len(g.pending)-1] }

// NewQueue builds the cost-ordered queue of a sweep from ExpandTasks output.
// Each task's key is computed once, here; trials already in the store
// (quarantine records included) are finished before the first take, which is
// what makes a re-run or a restarted coordinator resume. The cost model is
// built from the store's measured elapsed times.
func NewQueue(eff []bench.WorkloadConfig, tasks []TrialTask, store *results.Store) *Queue {
	return newQueue(eff, tasks, store, NewCostModel(store))
}

// newQueue is NewQueue with the order left to the caller: a nil model makes
// every estimate equal, so ties — lowest task index first — are the whole
// policy and trials leave in expansion order: the serial runner's
// bit-compatibility contract, and the control arm of the makespan test.
func newQueue(eff []bench.WorkloadConfig, tasks []TrialTask, store *results.Store, model *CostModel) *Queue {
	q := &Queue{
		store: store, model: model, eff: eff, tasks: tasks,
		slots: make([]slot, len(tasks)),
		conf:  make([]queuedGroup, len(eff)),
		byKey: make(map[string][]int, len(tasks)),
	}
	for i := range tasks {
		t := &tasks[i]
		s := &q.slots[i]
		s.key = results.KeyOf(t.Cfg)
		q.byKey[s.key] = append(q.byKey[s.key], i)
		if q.cacheable(i) {
			if recs := store.Get(s.key); len(recs) > 0 {
				s.state = taskDone
				q.done++
				q.book(s, recs[0], false)
				continue
			}
		}
		g := &q.conf[t.CfgIdx]
		if g.open == 0 {
			cfg := eff[t.CfgIdx]
			*g = queuedGroup{
				key:     results.GroupOf(cfg),
				static:  StaticCost(cfg),
				threads: cfg.Threads,
				label:   results.Label(cfg),
			}
		}
		g.pending = append(g.pending, i)
		g.open++
		q.pending++
	}
	return q
}

// cacheable reports whether task i's result may be served from, and stored
// in, the store. A recorded trial never is: a timeline cannot be replayed
// from a JSONL record.
func (q *Queue) cacheable(i int) bool {
	return q.store != nil && !q.tasks[i].Cfg.Record
}

// Len is the number of tasks in the sweep; Done how many are finished;
// Pending how many wait to be taken.
func (q *Queue) Len() int     { return len(q.tasks) }
func (q *Queue) Done() int    { return q.done }
func (q *Queue) Pending() int { return q.pending }

// Counts partitions Done: trials that ran, trials satisfied from the store
// or by a twin under the same key, and trials that finished quarantined
// (fresh or stored).
func (q *Queue) Counts() (executed, cached, failed int) {
	return q.executed, q.cached, q.failed
}

// Key, Config and Label identify task i.
func (q *Queue) Key(i int) string                  { return q.slots[i].key }
func (q *Queue) Config(i int) bench.WorkloadConfig { return q.tasks[i].Cfg }
func (q *Queue) Label(i int) string                { return q.conf[q.tasks[i].CfgIdx].label }

// Tasks returns the indices of the tasks under a TrialKey, in task order;
// nil for a key that is not part of the sweep.
func (q *Queue) Tasks(key string) []int { return q.byKey[key] }

// Finished reports whether task i is done.
func (q *Queue) Finished(i int) bool { return q.slots[i].state == taskDone }

// Estimate is the cost model's current estimate of task i, and whether it is
// the configuration's measured mean in nanoseconds rather than the
// calibrated static prior.
func (q *Queue) Estimate(i int) (est float64, measured bool) {
	return q.estimate(&q.conf[q.tasks[i].CfgIdx])
}

func (q *Queue) estimate(g *queuedGroup) (float64, bool) {
	if q.model == nil {
		return 0, false
	}
	return q.model.EstimateGroup(g.key, g.static)
}

// Take removes and returns the costliest pending trial whose thread demand
// fits capacity (<= 0 means unlimited), ties to the lowest task index: the
// head of a stable sort of the backlog by descending estimate, so the
// biggest remaining work starts earliest — the makespan argument. Estimates
// are read from the live model on every call, because completions shift
// them: one estimate per configuration and no hashing, whatever the backlog.
// ok is false when no pending trial fits.
func (q *Queue) Take(capacity int) (i int, ok bool) {
	i, _, ok = q.take(capacity, false, anyCost)
	return i, ok
}

// TakeCheapest is Take from the other end of the same order: the cheapest
// pending trial that fits, ties to the highest task index. The grant to a
// worker that nothing fits comes from here.
func (q *Queue) TakeCheapest(capacity int) (i int, ok bool) {
	i, _, ok = q.take(capacity, true, anyCost)
	return i, ok
}

// TakeWithin is TakeCheapest for filling a lease up to a cost budget: only
// a configuration the model has measured qualifies — an unmeasured one has
// no cost to count against the budget, so its first seed runs alone and
// feeds the model — and only at an estimate of at most budget nanoseconds,
// which est returns.
func (q *Queue) TakeWithin(capacity int, budget float64) (i int, est float64, ok bool) {
	return q.take(capacity, true, budget)
}

// anyCost is take's budget when estimates do not restrict the choice.
var anyCost = math.Inf(1)

func (q *Queue) take(capacity int, cheapest bool, budget float64) (int, float64, bool) {
	var (
		best    *queuedGroup
		bestEst float64
	)
	for gi := range q.conf {
		g := &q.conf[gi]
		if len(g.pending) == 0 || (capacity > 0 && g.threads > capacity) {
			continue
		}
		est, measured := q.estimate(g)
		if budget != anyCost && (!measured || est > budget) {
			continue
		}
		var better bool
		switch {
		case best == nil:
			better = true
		case cheapest:
			better = est < bestEst || (est == bestEst && g.tail() > best.tail())
		default:
			better = est > bestEst || (est == bestEst && g.head() < best.head())
		}
		if better {
			best, bestEst = g, est
		}
	}
	if best == nil {
		return 0, 0, false
	}
	var i int
	if cheapest {
		i = best.tail()
		best.pending = best.pending[:len(best.pending)-1]
	} else {
		i = best.head()
		best.pending = best.pending[1:]
	}
	q.slots[i].state = taskTaken
	q.pending--
	return i, bestEst, true
}

// Return puts a taken task back in its place in the order: its lease
// expired.
func (q *Queue) Return(i int) {
	g := &q.conf[q.tasks[i].CfgIdx]
	at, _ := slices.BinarySearch(g.pending, i)
	g.pending = slices.Insert(g.pending, at, i)
	q.slots[i].state = taskPending
	q.pending++
}

// shadowed reports whether task i need not run because a twin — a task under
// the same key, so with the same stored result — is taken and unfinished:
// the twin's completion will finish i too.
func (q *Queue) shadowed(i int) bool {
	if !q.cacheable(i) {
		return false
	}
	for _, j := range q.byKey[q.slots[i].key] {
		if j != i && q.slots[j].state == taskTaken {
			return true
		}
	}
	return false
}

// Finish makes rec the outcome of task i and feeds its wall time to the cost
// model. When results are cacheable the record is appended to the store
// unless its key is already there (it arrived by merge or from a concurrent
// writer; the stored record then stands and the task counts as cached), and
// every unfinished task under the key — pending or taken — finishes with it
// as a cache hit: one key, one execution, one record. twins are those tasks,
// i among them. A storeless run and recorded trials have nothing to share:
// i finishes alone and twins is nil. On a store error nothing is finished.
func (q *Queue) Finish(i int, rec results.Record) (twins []int, err error) {
	fresh := true
	if q.cacheable(i) {
		if fresh, err = q.store.AppendIfAbsent(rec); err != nil {
			return nil, err
		}
	}
	return q.settle(i, rec, fresh), nil
}

// FinishAll is Finish for the records of one fleet completion, which name
// their trials by key: each record in turn finishes the first unfinished
// task under its key, exactly as if it had been completed alone, but what
// the store has to take of the lot reaches it in one append. tasks[k] is the
// task recs[k] finished, or -1 when it finished none: its key is not part of
// the sweep, or every task under it was done already — by an earlier
// completion, or by an earlier record of this one.
func (q *Queue) FinishAll(recs []results.Record) (tasks []int, err error) {
	// What is news to the store is decided before anything is finished, as
	// the append has to be: a record with an unfinished cacheable task. Of
	// two such records under one key the store takes the first, and the turn
	// of the second finds its task finished by then.
	tasks = make([]int, len(recs))
	isNews := func(k int) bool { return tasks[k] >= 0 && q.cacheable(tasks[k]) }
	news := make([]results.Record, 0, len(recs))
	for k := range recs {
		if tasks[k] = q.open(recs[k].Key); isNews(k) {
			news = append(news, recs[k])
		}
	}
	var fresh []bool
	if len(news) > 0 {
		if fresh, err = q.store.AppendAllIfAbsent(news); err != nil {
			return nil, err
		}
	}
	for k := range recs {
		stored := true
		if isNews(k) {
			stored, fresh = fresh[0], fresh[1:]
		}
		if tasks[k] = q.open(recs[k].Key); tasks[k] >= 0 {
			q.settle(tasks[k], recs[k], stored)
		}
	}
	return tasks, nil
}

// open is the first unfinished task under key, -1 when there is none.
func (q *Queue) open(key string) int {
	for _, i := range q.byKey[key] {
		if q.slots[i].state != taskDone {
			return i
		}
	}
	return -1
}

// settle finishes task i under rec once the store has answered for it: fresh
// says the store took rec (or there was nothing to ask it).
func (q *Queue) settle(i int, rec results.Record, fresh bool) (twins []int) {
	if q.cacheable(i) {
		if !fresh {
			if recs := q.store.Get(rec.Key); len(recs) > 0 {
				rec = recs[0]
			}
		}
		twins = q.byKey[q.slots[i].key]
	}
	if q.model != nil {
		g := &q.conf[q.tasks[i].CfgIdx]
		q.model.ObserveGroup(g.key, g.static, rec.ElapsedNanos)
	}
	q.finish(i, rec, fresh)
	for _, j := range twins {
		if q.slots[j].state != taskDone {
			q.finish(j, rec, false)
		}
	}
	return twins
}

// finish moves one unfinished task to done under rec.
func (q *Queue) finish(i int, rec results.Record, ran bool) {
	s := &q.slots[i]
	g := &q.conf[q.tasks[i].CfgIdx]
	if s.state == taskPending {
		// Finished without being taken (a twin ran, or a late record
		// arrived after the lease expired): it is no longer grantable.
		at, _ := slices.BinarySearch(g.pending, i)
		g.pending = slices.Delete(g.pending, at, at+1)
		q.pending--
	}
	s.state = taskDone
	g.open--
	q.done++
	q.book(s, rec, ran)
}

// book enters a finished task's outcome in the sweep's counters and keeps its
// result for Summaries.
func (q *Queue) book(s *slot, rec results.Record, ran bool) {
	switch {
	case rec.Quarantined:
		q.failed++
		s.failure = rec.Error
	case ran:
		q.executed++
	default:
		q.cached++
	}
	if !rec.Quarantined {
		s.ok, s.trial = true, rec.Trial
	}
}

// Summaries assembles per-config summaries in input-config order with
// trials in seed-chain order, whatever order they ran in. Quarantined trials
// are excluded; a config with no successful trial yields a zero summary
// carrying the config, so output stays index-aligned with the input.
func (q *Queue) Summaries() []bench.Summary {
	per := make([][]bench.TrialResult, len(q.eff))
	for i := range q.tasks {
		if s := &q.slots[i]; s.ok {
			per[q.tasks[i].CfgIdx] = append(per[q.tasks[i].CfgIdx], s.trial)
		}
	}
	out := make([]bench.Summary, len(q.eff))
	for i, cfg := range q.eff {
		if len(per[i]) == 0 {
			out[i] = bench.Summary{Cfg: cfg}
			continue
		}
		out[i] = bench.SummarizeTrials(cfg, per[i])
	}
	return out
}
