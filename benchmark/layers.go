package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/arrival"
	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/grid"
	"repro/internal/results"
	"repro/internal/simalloc"
	"repro/internal/smr"
)

// closedForm is the workload's stack as the traced driver can run it: closed
// loop, fixed ops, no fault plan. The harness's admission and fault engines
// are unexported, so the open-loop workload is traced without them and its
// arrival layer is measured by call loops and by untraced repeats.
func closedForm(cfg bench.WorkloadConfig, fixedOps int) bench.WorkloadConfig {
	cfg.Arrival, cfg.Faults, cfg.Deadline, cfg.Duration = "", nil, 0, 0
	cfg.FixedOps = fixedOps
	return cfg
}

func offeredPerSec(cfg bench.WorkloadConfig) float64 {
	spec, err := arrival.Parse(cfg.Arrival)
	if err != nil {
		return 0
	}
	return spec.Rate * float64(cfg.Threads)
}

// traceTrial is the traced run of a trial workload. Per-layer numbers come
// from TraceRepeats traced repeats; the same repeats untraced, through
// bench.RunTrial, give bench.trace_overhead_pct.
func traceTrial(w *workload, opt options, r *result, c *checks) {
	cfg := w.trial(opt.size)
	checkFingerprint(w, opt, c)
	closed := closedForm(cfg, opt.size.TraceOps)
	n := opt.size.TraceRepeats
	seeds := bench.TrialSeeds(opt.seed, n)
	s := samples{}

	var untraced, traced []float64
	for _, seed := range seeds {
		closed.Seed = seed
		res, ok := runTrial(closed, c)
		if ok {
			untraced = append(untraced, res.OpsPerSec)
			harnessMetrics(s, res)
		}
		if cfg.Record && ok {
			// The recorder's cost on this stack: the same trial unrecorded,
			// interleaved with the recorded one.
			plain := closed
			plain.Record = false
			if base, ok := runTrial(plain, c); ok {
				s.add("timeline.recorded_ratio_pct", 100*res.OpsPerSec/base.OpsPerSec)
			}
		}
	}
	tr := newTracer(closed.Threads, 8*opt.size.TraceOps)
	for _, seed := range seeds {
		closed.Seed = seed
		tr.reset()
		d, err := drive(closed, tr)
		c.check(err == nil, "traced repeat seed %d: %v", seed, err)
		if err != nil {
			continue
		}
		c.check(d.smr.Retired == d.smr.Freed+d.smr.Limbo, "traced repeat seed %d: retired != freed + limbo", seed)
		traced = append(traced, float64(d.ops)/d.wall.Seconds())
		spanMetrics(s, closed, d, tr.reduce())
	}
	addTraceOverhead(r, untraced, traced)
	// The set-up split, on the harness's own stack driven untraced.
	for _, seed := range seeds {
		closed.Seed = seed
		d, err := drive(closed, nil)
		c.check(err == nil, "untraced driver seed %d: %v", seed, err)
		if err == nil {
			s.add("bench.newstack_ms", ms(d.build))
			s.add("bench.prefill_ms", ms(d.prefill))
			s.add("bench.teardown_ms", ms(d.teardown))
		}
	}
	for i := 0; i < n; i++ {
		clockLoops(s, opt.size.LoopCalls)
		err := allocatorLoops(s, opt.size.LoopCalls)
		if err == nil && cfg.Reclaimer == "hp" {
			err = guardLoop(s, opt.size.LoopCalls)
		}
		if err == nil && cfg.Arrival != "" {
			err = arrivalLoops(s, cfg, opt.size.LoopCalls)
		}
		c.check(err == nil, "%s call loops: %v", w.name, err)
	}
	if cfg.Arrival != "" {
		openLoopLayers(s, cfg, seeds, c)
		r.notef("traced on the %s/%s/%s stack as a closed loop without the fault plan: the harness's admission and fault engines are unexported; arrival.* come from call loops and %d untraced open-loop repeats",
			cfg.Scenario, cfg.DataStructure, cfg.Reclaimer, n)
	}
	if w.name == "read_hazard" {
		par2(r, closed, opt, c)
	}
	s.into(r.metrics)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// addTraceOverhead reports how much slower the traced repeats ran than the
// same repeats untraced, from the medians of their rates.
func addTraceOverhead(r *result, untraced, traced []float64) {
	if len(untraced) == 0 || len(traced) == 0 {
		return
	}
	_, u, _ := quartiles(untraced)
	_, t, _ := quartiles(traced)
	r.metrics["bench.trace_overhead_pct"] = single(100 * (u/t - 1))
}

// harnessMetrics takes the modelled statistics of the allocator and the
// reclaimer from an untraced repeat's TrialResult, where the tracer's own
// cost has not stretched the window they are shares of.
func harnessMetrics(s samples, res bench.TrialResult) {
	kops := float64(res.Ops) / 1000
	s.add("simalloc.flushes_per_kop", float64(res.Alloc.Flushes)/kops)
	if res.Alloc.Frees > 0 {
		s.add("simalloc.remote_free_share", float64(res.Alloc.RemoteFrees)/float64(res.Alloc.Frees))
	}
	s.add("simalloc.fresh_pages", float64(res.Alloc.FreshPages))
	s.add("simalloc.pct_free", res.PctFree)
	s.add("simalloc.pct_flush", res.PctFlush)
	s.add("simalloc.pct_lock", res.PctLock)
	s.add("simalloc.peak_mib", res.PeakMiB)
	s.add("smr.epochs_per_kop", float64(res.SMR.Epochs)/kops)
	s.add("smr.peak_limbo_objs", float64(res.PeakLimbo))
	if res.SMR.Retired > 0 {
		s.add("smr.freed_share", float64(res.SMR.Freed)/float64(res.SMR.Retired))
	}
	s.add("smr.pct_stall", res.PctStall)
}

// spanMetrics turns one traced repeat's spans into per-layer samples: call
// counts, self times and distributions seen at the layer boundaries.
func spanMetrics(s samples, cfg bench.WorkloadConfig, d driven, red reduced) {
	kops := float64(d.ops) / 1000
	share := func(l layer) float64 { return 100 * red.selfNs[l] / red.threadNs }

	s.add("simalloc.alloc_calls_per_kop", float64(red.count[kAlloc])/kops)
	s.add("simalloc.free_calls_per_kop", float64(red.count[kFree])/kops)
	s.add("simalloc.alloc_self_ns", perCall(red.kindSelf[kAlloc], red.count[kAlloc]))
	s.add("simalloc.free_self_ns", perCall(red.kindSelf[kFree], red.count[kFree]))
	frees := sorted(red.freeDur)
	s.add("simalloc.free_p99_ns", percentile(frees, 0.99))
	s.add("simalloc.free_max_us", percentile(frees, 1)/1000)
	s.add("simalloc.self_share_pct", share(layerAlloc))

	s.add("smr.beginop_self_ns", perCall(red.kindSelf[kBeginOp], red.count[kBeginOp]))
	s.add("smr.endop_self_ns", perCall(red.kindSelf[kEndOp], red.count[kEndOp]))
	s.add("smr.retire_self_ns", perCall(red.kindSelf[kRetire], red.count[kRetire]))
	s.add("smr.retire_calls_per_kop", float64(red.count[kRetire])/kops)
	bursts := sorted(red.bursts)
	s.add("smr.free_burst_p50_objs", percentile(bursts, 0.50))
	s.add("smr.free_burst_p99_objs", percentile(bursts, 0.99))
	s.add("smr.free_burst_max_objs", percentile(bursts, 1))
	s.add("smr.self_share_pct", share(layerSMR))

	all := sorted(slices.Concat(red.opDur[kInsert], red.opDur[kDelete], red.opDur[kContains]))
	s.add("ds.insert_ns_p50", percentile(sorted(red.opDur[kInsert]), 0.50))
	s.add("ds.delete_ns_p50", percentile(sorted(red.opDur[kDelete]), 0.50))
	s.add("ds.contains_ns_p50", percentile(sorted(red.opDur[kContains]), 0.50))
	s.add("ds.op_ns_p99", percentile(all, 0.99))
	s.add("ds.op_max_us", percentile(all, 1)/1000)
	s.add("ds.self_share_pct", share(layerDS))
	if d.updates > 0 {
		s.add("ds.update_success_share", float64(d.updatesOK)/float64(d.updates))
	}

	s.add("bench.window_s", d.wall.Seconds())
	s.add("bench.driver_share_pct", 100*red.driverNs()/red.threadNs)

	if cfg.Record {
		s.add("timeline.merge_ns_per_batch", perCall(red.kindSelf[kMerge], red.count[kMerge]))
		s.add("timeline.observe_free_ns", perCall(red.kindSelf[kObserveFree], red.count[kObserveFree]))
	}
}

// openLoopLayers runs the open-loop workload itself, untraced, for what only
// the harness's arrival engine and recorder can report.
func openLoopLayers(s samples, cfg bench.WorkloadConfig, seeds []uint64, c *checks) {
	offered := offeredPerSec(cfg)
	for _, seed := range seeds {
		cfg.Seed = seed
		res, ok := runTrial(cfg, c)
		if !ok {
			continue
		}
		s.add("arrival.offered_per_s", offered)
		s.add("arrival.achieved_share", res.OpsPerSec/offered)
		s.add("arrival.lat_p50_ms", float64(res.LatP50Ns)/1e6)
		s.add("arrival.lat_p99_ms", float64(res.LatP99Ns)/1e6)
		s.add("arrival.lat_p999_ms", float64(res.LatP999Ns)/1e6)
		s.add("timeline.events_committed", float64(res.Recorder.TotalEvents()))
		s.add("timeline.dropped", float64(res.Dropped))
		s.add("timeline.pct_host", res.PctHostOverhead)
	}
	checkBacklog(s["arrival.achieved_share"], c)
}

// par2 is the Threads == GOMAXPROCS diagnostic: on today's code this regime
// alternates, trial by trial at one seed, between a fast and a slow mode
// (suspected false sharing in the padded per-thread state). The quartiles of
// CPU per simulated op over the repeats show both modes; a fix should pull
// q3 down to q1. It gates nothing.
func par2(r *result, closed bench.WorkloadConfig, opt options, c *checks) {
	closed.Threads = pinnedProcs
	closed.FixedOps = opt.size.Par2Ops
	var cpu []float64
	for _, seed := range bench.TrialSeeds(opt.seed, opt.size.Par2Repeats) {
		closed.Seed = seed
		cpu0 := cpuNanos()
		res, ok := runTrial(closed, c)
		if ok {
			cpu = append(cpu, float64(cpuNanos()-cpu0)/float64(res.Ops))
		}
	}
	if len(cpu) > 0 {
		q1, _, q3 := quartiles(cpu)
		r.metrics["bench.par2_cpu_ns_per_simop_q1"] = single(q1)
		r.metrics["bench.par2_cpu_ns_per_simop_q3"] = single(q3)
	}
}

// sink keeps the call loops' results alive.
var sink int64

func clockLoops(s samples, n int) {
	t0 := clock.Now()
	for i := 0; i < n; i++ {
		sink += clock.Now()
	}
	s.add("clock.now_ns", float64(clock.Now()-t0)/float64(n))
	clock.EnsureCoarse()
	t0 = clock.Now()
	for i := 0; i < n; i++ {
		sink += clock.Coarse()
	}
	s.add("clock.coarse_ns", float64(clock.Now()-t0)/float64(n))
	s.add("clock.read_cost_ns", clock.ReadCostNs())
}

// allocatorLoops times an isolated one-thread alloc+free cycle of an
// ABtree-sized object on each allocator model.
func allocatorLoops(s samples, n int) error {
	for _, name := range simalloc.AllocatorNames() {
		a, err := simalloc.New(name, simalloc.DefaultConfig(1))
		if err != nil {
			return err
		}
		t0 := clock.Now()
		for i := 0; i < n; i++ {
			a.Free(0, a.Alloc(0, 240))
		}
		s.add("simalloc.cycle_ns."+name, float64(clock.Now()-t0)/float64(n))
	}
	return nil
}

// guardLoop times hazard-pointer publication through the concrete guard,
// the call the trees make per visited node.
func guardLoop(s samples, n int) error {
	a, err := simalloc.New("jemalloc", simalloc.DefaultConfig(1))
	if err != nil {
		return err
	}
	scheme, err := smr.New("hp", smr.DefaultConfig(a, 1))
	if err != nil {
		return err
	}
	guards, ok := scheme.(guardSource)
	if !ok {
		return fmt.Errorf("reclaimer hp has no Guard method")
	}
	g := guards.Guard(0)
	o := a.Alloc(0, 64)
	t0 := clock.Now()
	for i := 0; i < n; i++ {
		g.Protect(i, o)
	}
	s.add("smr.guard_protect_ns", float64(clock.Now()-t0)/float64(n))
	a.Free(0, o)
	return nil
}

func arrivalLoops(s samples, cfg bench.WorkloadConfig, n int) error {
	spec, err := arrival.Parse(cfg.Arrival)
	if err != nil {
		return err
	}
	gen, err := arrival.New(spec, cfg.Seed)
	if err != nil {
		return err
	}
	t0 := clock.Now()
	for i := 0; i < n; i++ {
		sink += gen.Next()
	}
	s.add("arrival.gen_next_ns", float64(clock.Now()-t0)/float64(n))
	var h arrival.Hist
	t0 = clock.Now()
	for i := 0; i < n; i++ {
		h.Observe(int64(i) << 4)
	}
	s.add("arrival.hist_observe_ns", float64(clock.Now()-t0)/float64(n))
	const quantileCalls = 1000
	t0 = clock.Now()
	for i := 0; i < quantileCalls; i++ {
		sink += h.Quantile(0.999)
	}
	s.add("arrival.hist_quantile_us", float64(clock.Now()-t0)/quantileCalls/1000)
	return nil
}

// timingTransport is the http.RoundTripper the traced fleet workers send
// their RPCs through. It has a transport of its own so that closing it ends
// every connection the run opened.
type timingTransport struct {
	next *http.Transport
	mu   sync.Mutex
	dur  map[string][]int64 // by URL path, ns
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := clock.Now()
	resp, err := t.next.RoundTrip(req)
	d := clock.Now() - t0
	t.mu.Lock()
	t.dur[req.URL.Path] = append(t.dur[req.URL.Path], d)
	t.mu.Unlock()
	return resp, err
}

// traceSweep is the traced run of a sweep workload. The grid, results and
// fleet layers are measured by timing calls into their exported functions;
// only the fleet has a boundary to interpose on (the workers' transport), so
// only there does tracing have an overhead to report.
func traceSweep(w *workload, opt options, r *result, c *checks) {
	n := opt.size.TraceRepeats
	seeds := bench.TrialSeeds(opt.seed, n)
	s := samples{}
	var last sweepRun
	var traced, untraced []float64
	for i, seed := range seeds {
		var tt *timingTransport
		var transport http.RoundTripper
		if w.fleet {
			tt = &timingTransport{next: &http.Transport{}, dur: map[string][]int64{}}
			transport = tt
		}
		run, err := runSweep(w, opt, seed, fmt.Sprintf("traced%d", i), transport, c)
		if tt != nil {
			tt.next.CloseIdleConnections()
		}
		if err != nil || run.ops == 0 {
			c.check(false, "%s traced repeat %d: %v", w.name, i, err)
			continue
		}
		last = run
		traced = append(traced, run.trialsPerSec())
		trials := float64(run.trials)
		s.add("grid.trials_per_s", run.trialsPerSec())
		s.add("grid.harness_efficiency", run.efficiency())
		s.add("grid.resume_trials_per_s", trials/run.resumeOpen.Seconds())
		s.add("grid.run_overhead_us_per_trial", (run.makespan.Seconds()*sweepParallel-run.trialTime.Seconds())*1e6/trials)
		s.add("grid.cache_hit_us", run.resumeRun.Seconds()*1e6/trials)
		s.add("grid.executed", float64(run.executed))
		s.add("grid.cached", float64(run.trials-run.resumeExecuted))
		s.add("grid.quarantined", float64(run.quarantine))
		s.add("results.bytes_per_record", float64(run.fileSize)/trials)
		if w.fleet {
			lease, complete := sorted(tt.dur["/v1/lease"]), sorted(tt.dur["/v1/complete"])
			rpcs := 0
			for _, d := range tt.dur {
				rpcs += len(d)
			}
			s.add("fleet.lease_rpc_us_p50", percentile(lease, 0.50)/1000)
			s.add("fleet.lease_rpc_us_p99", percentile(lease, 0.99)/1000)
			s.add("fleet.complete_rpc_us_p50", percentile(complete, 0.50)/1000)
			s.add("fleet.complete_rpc_us_p99", percentile(complete, 0.99)/1000)
			s.add("fleet.rpcs_per_trial", float64(rpcs)/trials)
			s.add("fleet.worker_idle_share", 1-run.efficiency())
			s.add("fleet.duplicates", float64(run.status.Duplicates))
			s.add("fleet.reissued", float64(run.status.Reissued))
			if plain, err := runSweep(w, opt, seed, fmt.Sprintf("plain%d", i), nil, c); err == nil {
				untraced = append(untraced, plain.trialsPerSec())
			}
		}
	}
	addTraceOverhead(r, untraced, traced)
	if last.trials > 0 {
		for i := 0; i < n; i++ {
			gridLoops(s, opt, seeds[0], last)
			if err := resultsLoops(s, filepath.Join(opt.dir, fmt.Sprintf("replay%d.jsonl", i)), last); err != nil {
				c.check(false, "%s results replay: %v", w.name, err)
			}
			if w.fleet {
				if err := fleetDirectLoop(s, last); err != nil {
					c.check(false, "%s direct coordinator calls: %v", w.name, err)
				}
			}
		}
	}
	s.into(r.metrics)
}

func gridLoops(s samples, opt options, seed uint64, run sweepRun) {
	t0 := clock.Now()
	cfgs := sweepSpec(opt.size, seed).Expand()
	_, tasks := grid.ExpandTasks(cfgs, run.perCfg, nil, 0)
	s.add("grid.expand_us_per_task", float64(clock.Now()-t0)/1000/float64(len(tasks)))
	var cost float64
	t0 = clock.Now()
	for _, t := range tasks {
		cost += grid.StaticCost(t.Cfg)
	}
	s.add("grid.static_cost_ns", float64(clock.Now()-t0)/float64(len(tasks)))
	sink += int64(cost)
}

// resultsLoops replays the sweep's own records into a fresh file store at path:
// key hashing, appends one by one, a load of the whole file, and lookups.
func resultsLoops(s samples, path string, run sweepRun) error {
	recs := run.records
	t0 := clock.Now()
	for _, rec := range recs {
		sink += int64(len(results.KeyOf(rec.Config)))
	}
	s.add("results.keyof_us", float64(clock.Now()-t0)/1000/float64(len(recs)))

	store, err := results.Open(path)
	if err != nil {
		return err
	}
	defer store.Close() // error paths; the success path closes and checks below
	appendNs := make([]int64, len(recs))
	for i, rec := range recs {
		t0 := clock.Now()
		if err := store.Append(rec); err != nil {
			return err
		}
		appendNs[i] = clock.Now() - t0
	}
	if err := store.Close(); err != nil {
		return err
	}
	slices.Sort(appendNs)
	s.add("results.append_us_p50", percentile(appendNs, 0.50)/1000)
	s.add("results.append_us_p99", percentile(appendNs, 0.99)/1000)

	t0 = clock.Now()
	loaded, err := results.Open(path)
	if err != nil {
		return err
	}
	defer loaded.Close() // only read
	s.add("results.open_load_us_per_record", float64(clock.Now()-t0)/1000/float64(len(recs)))
	t0 = clock.Now()
	for _, rec := range recs {
		sink += int64(len(loaded.Get(rec.Key)))
	}
	s.add("results.get_ns", float64(clock.Now()-t0)/float64(len(recs)))
	return nil
}

// fleetDirectLoop calls the coordinator's Lease and Complete in-process over
// the sweep's own records; the RPC timings minus these are the transport's
// share.
func fleetDirectLoop(s samples, run sweepRun) error {
	byKey := make(map[string]results.Record, len(run.records))
	for _, rec := range run.records {
		byKey[rec.Key] = rec
	}
	coord, err := fleet.NewCoordinator(run.cfgs, run.perCfg, fleet.CoordinatorConfig{Store: results.NewMemStore()})
	if err != nil {
		return err
	}
	var leaseNs, completeNs int64
	calls := 0
	for {
		t0 := clock.Now()
		lease, err := coord.Lease(fleet.LeaseRequest{Worker: "direct", Capacity: 1})
		leaseNs += clock.Now() - t0
		if err != nil {
			return err
		}
		if lease.Status != fleet.StatusLease {
			break
		}
		req := fleet.CompleteRequest{LeaseID: lease.LeaseID, Worker: "direct", Key: lease.Key, Record: byKey[lease.Key]}
		t0 = clock.Now()
		_, err = coord.Complete(req)
		completeNs += clock.Now() - t0
		if err != nil {
			return err
		}
		calls++
	}
	if calls != run.trials {
		return fmt.Errorf("direct loop completed %d of %d trials", calls, run.trials)
	}
	s.add("fleet.lease_direct_us", float64(leaseNs)/1000/float64(calls))
	s.add("fleet.complete_direct_us", float64(completeNs)/1000/float64(calls))
	return nil
}
