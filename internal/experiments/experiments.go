// Package experiments states the paper's tables and figures as data: each is
// an Experiment value in one table (All), made of the sweeps it runs, as
// grid.Spec values naming only what the figure fixes, and the renderer that
// turns their summaries into the figure's report. Everything a figure leaves
// open (window, key range, scenario, seed, the thread sweep) comes from the
// spec the caller's flags built, and every trial runs through grid.Runner, so
// an experiment is stored, resumed, retried and parallelised like any sweep.
package experiments

import (
	"fmt"
	"slices"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
	"repro/internal/simalloc"
	"repro/internal/smr"
)

// Sweep is one rectangular part of an experiment.
type Sweep struct {
	// Spec names only the axes and Base fields (Record, Cost, Arrival) the
	// figure fixes; Resolve overlays it on the caller's spec. A Threads axis
	// here is a literal list the figure names (Fig. 2's 96 and 192).
	grid.Spec
	// Point marks a single-point sweep: one trial per configuration, seed
	// verbatim (Runner.Run's trials <= 0), at the caller's at-thread count.
	// Other sweeps run the caller's thread sweep and trials under the seed chain.
	Point bool
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the key -experiment takes ("fig1", "table2", "exp1", ...).
	ID string
	// Title describes what the paper shows.
	Title string
	// Sweeps are the configurations the figure needs: one rectangle, or a
	// thread sweep plus a point.
	Sweeps []Sweep
	// Report renders the figure from one summary slice per sweep, looking
	// summaries up by configuration fields, never by position.
	Report func(sweeps [][]results.Summary) string
}

// paperThreads is the paper's thread sweep, used when the caller names none;
// paperAt is its single-point thread count.
var paperThreads = []int{6, 12, 24, 36, 48, 96, 144, 192}

const paperAt = 192

var (
	recorded   = bench.WorkloadConfig{Record: true}
	batchAndAF = []string{"debra", "debra_af"}
	tokenSteps = []string{"token_naive", "token_pass", "token_periodic", "token_af"}
	exp2Names  = pairNames()
)

// pairNames flattens Experiment 2's (orig, af) pairs into one reclaimer axis.
func pairNames() []string {
	var out []string
	for _, p := range smr.Experiment2Pairs() {
		out = append(out, p[0], p[1])
	}
	return out
}

// sweep and point build the two kinds of one-sweep experiment.
func sweep(s grid.Spec) []Sweep { return []Sweep{{Spec: s}} }
func point(s grid.Spec) []Sweep { return []Sweep{{Spec: s, Point: true}} }

// tokenTimeline is Figs. 6-9: one recorded trial of a Token-EBR variant.
func tokenTimeline(id, title, reclaimer string) Experiment {
	return Experiment{id, title,
		point(grid.Spec{Base: recorded, Reclaimers: []string{reclaimer}}), tokenTimelineReport}
}

// machine is Figs. 15-16: Experiment 1's headline rows across threads plus
// Experiment 2 at full load, under another machine's cost model.
func machine(id, title, heading string, cost simalloc.CostModel) Experiment {
	base := bench.WorkloadConfig{Cost: cost}
	return Experiment{id, title, []Sweep{
		{Spec: grid.Spec{Base: base, Reclaimers: []string{"token_af", "debra_af", "nbrplus", "debra", "none", "hp"}}},
		{Spec: grid.Spec{Base: base, Reclaimers: exp2Names}, Point: true},
	}, machineReport(heading)}
}

// All is the experiment table, in the paper's order.
var All = []Experiment{
	// Section 3: diagnosing the remote-batch-free problem.
	{"fig1", "Fig. 1: ABtree vs OCCtree throughput and peak memory, DEBRA vs leaky, JEmalloc",
		sweep(grid.Spec{DataStructures: []string{"abtree", "occtree"}, Reclaimers: []string{"debra", "none"}}), fig1Report},
	{"fig2", "Fig. 2: timeline graphs of batch frees as epochs change (DEBRA, 96 vs 192 threads)",
		point(grid.Spec{Base: recorded, Threads: []int{96, 192}, Reclaimers: []string{"debra"}}), fig2Report},
	{"table1", "Table 1: JEmalloc free overhead vs thread count (DEBRA)",
		point(grid.Spec{Threads: []int{48, 96, 192}, Reclaimers: []string{"debra"}}), table1Report},
	{"fig3", "Fig. 3: individual free-call timelines, batch free vs amortized free (192 threads)",
		point(grid.Spec{Base: recorded, Reclaimers: batchAndAF}), fig3Report},
	{"table2", "Table 2: amortized free vs batch free on JEmalloc (192 threads)",
		point(grid.Spec{Allocators: []string{"jemalloc"}, Reclaimers: batchAndAF}), table2Report},
	{"fig4", "Fig. 4: garbage per epoch, batch free vs amortized free",
		point(grid.Spec{Base: recorded, Reclaimers: batchAndAF}), fig4Report},
	{"table3", "Table 3: batch vs amortized free on TCmalloc and MImalloc (192 threads)",
		point(grid.Spec{Allocators: []string{"tcmalloc", "mimalloc"}, Reclaimers: batchAndAF}), table3Report},

	// Section 4: the Token-EBR design sequence.
	{"fig5", "Fig. 5: Naive Token-EBR throughput and peak memory across threads",
		sweep(grid.Spec{Reclaimers: []string{"token_naive", "debra", "none"}}),
		tokenSweepReport("Fig. 5 — Naive Token-EBR vs DEBRA vs leaky (ABtree, JEmalloc):")},
	tokenTimeline("fig6", "Fig. 6: Naive Token-EBR batch-free timeline and garbage pile-up (192 threads)", "token_naive"),
	tokenTimeline("fig7", "Fig. 7: Pass-first Token-EBR timeline and garbage (192 threads)", "token_pass"),
	tokenTimeline("fig8", "Fig. 8: Periodic Token-EBR timeline and garbage (192 threads)", "token_periodic"),
	tokenTimeline("fig9", "Fig. 9: Amortized-free Token-EBR timeline and garbage (192 threads)", "token_af"),
	{"fig10", "Fig. 10: Amortized-free Token-EBR throughput and peak memory across threads",
		sweep(grid.Spec{Reclaimers: tokenSteps}), tokenSweepReport("Fig. 10 — Token-EBR variants (ABtree, JEmalloc):")},
	{"table4", "Table 4: analysis of Token-EBR variants (192 threads)",
		point(grid.Spec{Reclaimers: tokenSteps}), table4Report},

	// Section 5 and appendices C-E: the full evaluation.
	{"exp1", "Fig. 11a (Experiment 1): token_af vs the state of the art across threads",
		sweep(grid.Spec{Reclaimers: smr.Experiment1Names()}), exp1Report},
	{"exp2", "Fig. 11b (Experiment 2): AF vs ORIG for ten reclaimers at 192 threads",
		point(grid.Spec{Reclaimers: exp2Names}), exp2Report},
	{"fig12", "Fig. 12 (App. C): ORIG vs AF across threads, per reclaimer, ABtree",
		sweep(grid.Spec{DataStructures: []string{"abtree"}, Reclaimers: exp2Names}), origVsAFReport("Fig. 12 — ABtree")},
	{"fig13", "Fig. 13 (App. D): ORIG vs AF across threads, per reclaimer, DGT tree",
		sweep(grid.Spec{DataStructures: []string{"dgtree"}, Reclaimers: exp2Names}), origVsAFReport("Fig. 13 — DGT tree")},
	{"fig14", "Fig. 14 (App. D): token_af vs other reclaimers, DGT tree",
		sweep(grid.Spec{DataStructures: []string{"dgtree"}, Reclaimers: smr.Experiment1Names()}), exp1Report},
	machine("fig15", "Fig. 15 (App. E): Intel 4-socket 144-core machine model", "Fig. 15 — intel144", simalloc.Intel144()),
	machine("fig16", "Fig. 16 (App. E): AMD 2-socket 256-core machine model", "Fig. 16 — amd256", simalloc.AMD256()),

	// Appendices F-G: visible free calls and per-allocator DEBRA timelines.
	{"fig17", "Fig. 17 (App. F): visible (>= 0.1 ms) free calls, batch vs amortized free",
		point(grid.Spec{Base: recorded, Reclaimers: batchAndAF}), fig17Report},
	{"appg", "Figs. 18-29 (App. G): DEBRA timelines for JE/TC/MI at 48/96/192/240 threads",
		point(grid.Spec{Base: recorded, Allocators: simalloc.AllocatorNames(), Threads: []int{48, 96, 192, 240}, Reclaimers: []string{"debra"}}), appGReport},

	// Open-system extension: the paper's robustness story told in tail
	// latency. A closed loop turns an SMR stall into a throughput dip, an open
	// loop into queueing delay, so bounded and unbounded schemes split as a p999
	// blowup instead of a limbo count. Four workers at this per-worker rate stay
	// under single-socket capacity, where a stall (worker 0 parked long enough
	// to matter; the grid latency gate's plan) becomes backlog, not saturation.
	{"lat", "Open-system tail latency: healthy vs stalled-reader p999 per reclaimer (poisson arrivals)",
		point(grid.Spec{
			Base:       bench.WorkloadConfig{Arrival: "poisson:150000"},
			FaultPlans: [][]bench.FaultSpec{nil, mustFaults("stall:w0@5000~60000")},
			Threads:    []int{4},
			Reclaimers: []string{"debra", "qsbr", "hp", "he", "ibr"},
		}), latReport},
}

func mustFaults(plan string) []bench.FaultSpec {
	fs, err := bench.ParseFaults(plan)
	if err != nil {
		panic(err)
	}
	return fs
}

// Get looks up an experiment by ID.
func Get(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists the experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, len(All))
	for i, e := range All {
		ids[i] = e.ID
	}
	slices.Sort(ids)
	return ids
}

// axis resolves one axis: the figure's own values when it fixes the axis, the
// caller's single value (or none) otherwise. A caller naming an axis the
// figure fixes, or sweeping one it does not, is refused rather than ignored.
func axis[T any](flag string, given, owned []T, err *error) []T {
	switch {
	case len(owned) > 0 && len(given) > 0:
		*err = fmt.Errorf("the experiment fixes %s", flag)
	case len(owned) > 0:
		return owned
	case len(given) > 1:
		*err = fmt.Errorf("the experiment does not sweep %s: give it one value", flag)
	}
	return given
}

// Resolve overlays the experiment's sweeps on the spec the caller's flags
// built and validates the result: it returns the experiment with every sweep
// complete, ready to expand and Run. flags.Threads is the thread sweep
// (the paper's 6…192 when empty) and at the single-point thread count (192 when
// <= 0); a figure's literal thread list overrides either.
func (e Experiment) Resolve(flags grid.Spec, at int) (Experiment, error) {
	if at <= 0 {
		at = paperAt
	}
	resolved := make([]Sweep, len(e.Sweeps))
	for i, sw := range e.Sweeps {
		var err error
		m := flags
		m.Scenarios = axis("-scenarios", flags.Scenarios, sw.Scenarios, &err)
		m.PhaseSchedules = axis("-phases", flags.PhaseSchedules, sw.PhaseSchedules, &err)
		m.FaultPlans = axis("-faults", flags.FaultPlans, sw.FaultPlans, &err)
		m.Arrivals = axis("-arrivals", flags.Arrivals, sw.Arrivals, &err)
		m.DataStructures = axis("-ds", flags.DataStructures, sw.DataStructures, &err)
		m.Allocators = axis("-allocators", flags.Allocators, sw.Allocators, &err)
		m.BatchSizes = axis("-batches", flags.BatchSizes, sw.BatchSizes, &err)
		m.Reclaimers = axis("-reclaimers", flags.Reclaimers, sw.Reclaimers, &err)
		if err != nil {
			return e, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		switch {
		case len(sw.Threads) > 0:
			m.Threads = sw.Threads
		case sw.Point:
			m.Threads = []int{at}
		case len(m.Threads) == 0:
			m.Threads = paperThreads
		}
		if sw.Base.Record {
			m.Base.Record = true
		}
		if sw.Base.Cost.ThreadsPerSocket != 0 {
			m.Base.Cost = sw.Base.Cost
		}
		if sw.Base.Arrival != "" {
			m.Base.Arrival = sw.Base.Arrival // a default: the caller's -arrivals axis, if any, overrides it
		}
		if err := m.Validate(); err != nil {
			return e, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		resolved[i] = Sweep{Spec: m, Point: sw.Point}
	}
	e.Sweeps = resolved
	return e, nil
}

// RunTrials is the count Runner.Run takes for the sweep: the spec's, under
// the seed chain, or 0 (one trial, seed verbatim) for a point.
func (s Sweep) RunTrials() int {
	if s.Point {
		return 0
	}
	return max(s.Trials, 1)
}

// Run executes a resolved experiment's sweeps through r and renders the
// report. The summaries also come back flat, sweep after sweep in expansion
// order, for the formats that emit them as any sweep's.
func (e Experiment) Run(r *grid.Runner) (string, []results.Summary, error) {
	per := make([][]results.Summary, len(e.Sweeps))
	for i, sw := range e.Sweeps {
		var err error
		if per[i], err = r.Run(sw.Expand(), sw.RunTrials()); err != nil {
			return "", nil, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
	}
	return e.Report(per), slices.Concat(per...), nil
}
