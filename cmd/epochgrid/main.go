// Command epochgrid is the harness's one CLI: it declares parameter sweeps
// from flags, reproduces the paper's tables and figures, runs either through
// the parallel cache-aware grid runner, and diffs result stores.
//
// Sweep (axes are comma-separated; the cartesian product runs):
//
//	epochgrid -scenarios paper,zipf -reclaimers debra,token_af -threads 2,4 \
//	    -trials 3 -dur 100ms -store results.jsonl -parallel 4
//
// A re-run of the same sweep against the same store executes zero trials
// (every key is already present); an interrupted sweep resumes where it
// stopped. Emit machine-readable results with -format json|csv.
//
// A table or figure of the paper is a sweep the harness already knows
// (internal/experiments; -list names them): its own axes overlaid on the
// flags', its report printed in place of the summary table.
//
//	epochgrid -experiment table2 -at 48
//	epochgrid -experiment exp1 -threads 6,12,24,48 -trials 3 -parallel 4 -store results.jsonl
//
// -threads is the thread sweep (default: the paper's 6..192), -at the thread
// count of single-point tables and figures (default 192); every other flag
// applies as to a plain sweep, one value per axis.
//
// Robustness sweeps inject faults and bound wedges:
//
//	epochgrid -reclaimers hp,debra -faults "none;stall:w0@4096" \
//	    -ops 20000 -deadline 2s -retries 1 -store results.jsonl
//
// runs every configuration healthy and with worker 0 stalled inside a
// guard; -deadline arms the per-trial watchdog, and trials that still fail
// after -retries re-executions are quarantined in the store (resume skips
// them; the sweep keeps going; exit code 3 reports quarantines).
//
// Open-system sweeps drive workers from an arrival process and measure
// modeled queueing latency (admission to completion):
//
//	epochgrid -reclaimers debra,hp -arrivals "none;poisson:150000" \
//	    -faults "none;stall:w0@5000~60000" -dur 600ms -store results.jsonl
//
// crosses closed-loop controls with open-system configs; summaries then
// carry pooled p99/p999 latency columns in every output format.
//
// Distributed sweeps split one grid across processes (or machines) under
// time-bounded leases, converging on the same store a local sweep would:
//
//	epochgrid -serve :7712 -store sweep.jsonl -reclaimers debra,hp -trials 3
//	epochgrid -worker http://host:7712        # one per machine/core
//
// Workers that die mid-trial lose their lease and the trial is re-issued;
// duplicate completions dedupe by trial key; a killed coordinator restarts
// with the same -serve flags and resumes from the store. See internal/fleet.
//
// Regression diff between two stores:
//
//	epochgrid -compare old.jsonl -with new.jsonl -tol 0.05 -lat-tol 4
//
// exits 1 when any configuration regressed beyond the tolerance — mean
// throughput outside ±tol, peak limbo grown past -limbo-tol, or p999
// latency grown past -lat-tol — which is what the CI gate keys off.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/arrival"
	"repro/internal/bench"
	"repro/internal/ds"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/results"
	"repro/internal/smr"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// realMain is main behind an exit code, so deferred cleanup — closing the
// store and -out, flushing the profiles — runs on every exit path.
func realMain(args []string) int {
	fs := flag.NewFlagSet("epochgrid", flag.ContinueOnError)
	var sweep sweepFlags
	sweep.register(fs)
	var (
		list       = fs.Bool("list", false, "enumerate registered experiments, scenarios, data structures, allocators and reclaimers, then exit")
		experiment = fs.String("experiment", "", "run a table or figure of the paper by id, or \"all\" (see -list): its own axes over the sweep flags', one value per other axis; -format table prints its report")
		at         = fs.Int("at", 0, "-experiment: thread count of single-point tables and figures (default 192)")
		deadline   = fs.Duration("deadline", 0, "per-trial watchdog deadline: abort a trial whose op progress stalls this long (0 = no watchdog)")
		retries    = fs.Int("retries", 0, "re-execute a failed trial this many times before quarantining it")
		backoff    = fs.Duration("backoff", 0, "base delay between trial retries, doubled with seeded jitter (default 50ms)")
		serveAddr  = fs.String("serve", "", "coordinator mode: serve the sweep's trials under leases on this address (e.g. :7712); requires -store")
		workerURL  = fs.String("worker", "", "worker mode: pull leased trials from the coordinator at this URL (e.g. http://host:7712)")
		statusURL  = fs.String("status", "", "status mode: pretty-print the coordinator's /v1/status from this URL and exit")
		leaseTTL   = fs.Duration("lease-ttl", 30*time.Second, "coordinator mode: how long a worker may hold a trial without renewing before it is re-issued")
		localGrace = fs.Duration("local-grace", 5*time.Second, "coordinator mode: if no worker leases a trial within this window, drain the sweep locally in-process (0 disables)")
		workerName = fs.String("worker-name", "", "worker mode: name journaled with claims (default host:pid)")
		spoolPath  = fs.String("spool", "", "worker mode: local JSONL spool for records the coordinator could not receive (default: auto temp path; \"none\" disables)")
		capacity   = fs.Int("capacity", 0, "worker mode: thread capacity advertised for cost-aware placement (default GOMAXPROCS; negative = unlimited)")
		storePath  = fs.String("store", "", "JSONL results store: cache hits skip execution, completed trials append")
		parallel   = fs.Int("parallel", 1, "max in-flight trials")
		budget     = fs.Int("budget", 0, "thread-token budget shared by in-flight trials (default GOMAXPROCS)")
		format     = fs.String("format", "table", "output format: table, json, csv")
		outPath    = fs.String("out", "", "write results to this file instead of stdout")
		progress   = fs.Bool("progress", false, "stream per-trial progress to stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the measured work (from the first trial's window on) to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile at exit to this file")
		compareOld = fs.String("compare", "", "diff mode: path of the old (baseline) store")
		compareNew = fs.String("with", "", "diff mode: path of the new store (required with -compare)")
		tol        = fs.Float64("tol", 0.05, "relative mean-ops tolerance for unchanged classification")
		limboTol   = fs.Float64("limbo-tol", 0, "diff mode: peak-limbo growth factor beyond which a group regresses (0 = default 4.0)")
		latTol     = fs.Float64("lat-tol", 0, "diff mode: p999 modeled-latency growth factor beyond which a group regresses (0 = default 4.0)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "epochgrid: "+format+"\n", a...)
		return code
	}

	if *list {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			e, _ := experiments.Get(id)
			fmt.Printf("  %-8s %s\n", id, e.Title)
		}
		fmt.Printf("scenarios:       %s\n", strings.Join(bench.Scenarios(), ", "))
		fmt.Printf("data structures: %s\n", strings.Join(ds.Names(), ", "))
		fmt.Printf("allocators:      %s\n", strings.Join(grid.Allocators(), ", "))
		fmt.Printf("reclaimers:      %s\n", strings.Join(smr.Names(), ", "))
		syntaxes := make([]string, 0, len(arrival.Names()))
		for _, k := range arrival.Names() {
			syntaxes = append(syntaxes, arrival.Syntax(k))
		}
		fmt.Printf("arrivals:        %s\n", strings.Join(syntaxes, ", "))
		return 0
	}

	if *compareOld != "" || *compareNew != "" {
		return runCompare(*compareOld, *compareNew, *tol, *limboTol, *latTol, *format, *outPath)
	}

	if *statusURL != "" {
		return runStatus(*statusURL)
	}

	if *experiment != "" && (*serveAddr != "" || *workerURL != "") {
		return fail(2, "-experiment runs in this process: it cannot be combined with -serve or -worker")
	}
	if *workerURL != "" {
		// Worker mode ignores the sweep axes: the coordinator owns the spec,
		// the worker just executes what it is leased.
		return runWorker(*workerURL, *retries, *backoff, *workerName, *spoolPath,
			*capacity, *progress)
	}

	spec, err := sweep.spec()
	if err != nil {
		return fail(2, "%v", err)
	}
	// A sweep, or the experiments' sweeps, resolved and validated before the
	// first trial of any of them runs.
	var plan []experiments.Experiment
	if *experiment != "" {
		if plan, err = planExperiments(*experiment, spec, *at); err != nil {
			return fail(2, "%v", err)
		}
	} else if err := spec.Validate(); err != nil {
		return fail(2, "%v", err)
	}
	switch *format {
	case "table", "json", "csv":
	default:
		return fail(2, "unknown format %q (table, json, csv)", *format)
	}
	// -out opens before the first trial: a mistyped path must not cost the
	// sweep.
	out, closeOut, err := openOut(*outPath)
	if err != nil {
		return fail(1, "%v", err)
	}
	defer closeOut()

	if *serveAddr != "" {
		return runServe(*serveAddr, spec, *storePath, *leaseTTL, *deadline, *localGrace,
			*retries, *backoff, *format, out, *progress)
	}

	runner := &grid.Runner{Parallel: *parallel, Budget: *budget, Deadline: *deadline, Retries: *retries, Backoff: *backoff}
	if *storePath != "" {
		st, err := openStore(*storePath, os.Stderr)
		if err != nil {
			return fail(1, "%v", err)
		}
		defer st.Close()
		runner.Store = st
	}
	if *progress {
		runner.OnProgress = func(p grid.Progress) {
			verb := "ran"
			switch {
			case p.Err != nil && p.FromCache:
				verb = "skipped quarantined"
			case p.Err != nil:
				verb = "quarantined"
			case p.FromCache:
				verb = "hit"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s (%s)\n",
				p.Done, p.Total, verb, results.Label(p.Config), p.Key)
			if p.Err != nil {
				fmt.Fprintf(os.Stderr, "    %v\n", p.Err)
			}
		}
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fail(1, "%v", err)
	}
	defer stopProfiles()

	t0 := time.Now()
	var sums []bench.Summary
	if plan != nil {
		sums, err = runExperiments(plan, runner, out, *format == "table")
	} else {
		sums, err = runner.RunSpec(spec)
	}
	if err != nil {
		return fail(1, "%v", err)
	}
	executed, cached := runner.Counts()
	quarantined := runner.Quarantines()
	// An experiment's table is its report, written as it finished.
	if plan == nil || *format != "table" {
		if err := emit(out, *format, sums, executed, cached); err != nil {
			return fail(1, "%v", err)
		}
	}
	return closeSweep(len(sums), executed+cached+quarantined, executed, cached, quarantined, t0)
}

// planExperiments resolves -experiment's id ("all": every id, sorted) against
// the flags' spec.
func planExperiments(id string, flags grid.Spec, at int) ([]experiments.Experiment, error) {
	ids := []string{id}
	if id == "all" {
		ids = experiments.IDs()
	}
	plan := make([]experiments.Experiment, len(ids))
	for i, id := range ids {
		e, ok := experiments.Get(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (have all, %s)", id, strings.Join(experiments.IDs(), ", "))
		}
		var err error
		if plan[i], err = e.Resolve(flags, at); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// runExperiments runs the plan in order through the runner. With reports set
// each experiment's report is written to out as it finishes; the summaries of
// all of them come back for the formats that emit those instead.
func runExperiments(plan []experiments.Experiment, runner *grid.Runner, out io.Writer, reports bool) ([]bench.Summary, error) {
	var all []bench.Summary
	for _, p := range plan {
		t0 := time.Now()
		report, sums, err := p.Run(runner)
		if err != nil {
			return nil, err
		}
		all = append(all, sums...)
		if reports {
			fmt.Fprintf(out, "== %s: %s ==\n%s\n(%s completed in %v)\n\n",
				p.ID, p.Title, report, p.ID, time.Since(t0).Round(time.Millisecond))
		}
	}
	return all, nil
}

// closeSweep is the tail of every finished sweep, local or served, once its
// output is written: print the machine-greppable run line (the CI cache-hit
// gate matches executed=0, the robustness gate quarantined=N) and pick the
// exit code.
func closeSweep(configs, trials, executed, cached, quarantined int, t0 time.Time) int {
	fmt.Fprintf(os.Stderr, "grid: configs=%d trials=%d executed=%d cached=%d quarantined=%d wall=%v\n",
		configs, trials, executed, cached, quarantined, time.Since(t0).Round(time.Millisecond))
	if quarantined > 0 {
		// The sweep completed and its results were emitted, but some trials
		// failed permanently — a distinct exit code so CI can tell "grid
		// survived wedges" (expected in fault sweeps) from a clean pass.
		return 3
	}
	return 0
}

func openOut(path string) (io.Writer, func(), error) {
	if path == "" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// phasesOf renders the phase schedule a summary's trials ran. The trials
// themselves record it (TrialResult.Phases), which stays accurate even
// for store records written by a build whose scenario defaults differed;
// re-deriving from the config is only the fallback for records that
// predate the field. Empty means the implicit single phase. Every format
// carries it, so stored artifacts are self-describing about thread churn.
func phasesOf(s bench.Summary) string {
	for _, tr := range s.Trials {
		if tr.Phases != "" {
			return tr.Phases
		}
	}
	ph, _ := bench.EffectivePhases(s.Cfg)
	return bench.FormatPhases(ph)
}

// faultsOf renders a summary's fault plan ("none" for healthy configs), so
// fault sweeps are self-describing in every output format.
func faultsOf(s bench.Summary) string {
	return bench.FormatFaults(s.Cfg.Faults)
}

// arrivalOf renders a summary's arrival process in canonical syntax ("none"
// for closed-loop configs), so open-system sweeps are self-describing in
// every output format.
func arrivalOf(s bench.Summary) string {
	for _, tr := range s.Trials {
		if tr.Arrival != "" {
			return tr.Arrival
		}
	}
	sp, err := arrival.Parse(s.Cfg.Arrival)
	if err != nil {
		return s.Cfg.Arrival
	}
	return arrival.Format(sp)
}

// latOf pools a summary's per-trial latency histograms and returns the p99
// and p999 modeled latency in milliseconds — quantiles of the pooled
// observations, not averages of per-trial quantiles, so one bad trial's
// tail dominates. Both zero for closed-loop groups.
func latOf(s bench.Summary) (p99ms, p999ms float64) {
	var h arrival.Hist
	for _, tr := range s.Trials {
		h.Merge(tr.Latency)
	}
	if h.Count() == 0 {
		return 0, 0
	}
	return float64(h.Quantile(0.99)) / 1e6, float64(h.Quantile(0.999)) / 1e6
}

// peakLimboOf is the mean unreclaimed-object high-water mark across a
// summary's trials — the robustness metric a stall sweep compares between
// hazard-family (bounded) and epoch-based (unbounded) schemes.
func peakLimboOf(s bench.Summary) float64 {
	if len(s.Trials) == 0 {
		return 0
	}
	var sum float64
	for _, tr := range s.Trials {
		sum += float64(tr.PeakLimbo)
	}
	return sum / float64(len(s.Trials))
}

// elapsedMsOf is the mean measured wall time of a summary's trials in
// milliseconds — the number the grid's cost model schedules by. Zero for
// records that predate ElapsedNanos stamping.
func elapsedMsOf(s bench.Summary) float64 {
	if len(s.Trials) == 0 {
		return 0
	}
	var sum float64
	for _, tr := range s.Trials {
		sum += float64(tr.ElapsedNanos)
	}
	return sum / float64(len(s.Trials)) / 1e6
}

// hostOf renders the distinct hosts a summary's trials ran on, ';'-joined in
// first-appearance order. Single-process sweeps yield one host; a fleet
// sweep's summaries name every machine that contributed, so distributed
// results are traceable without opening the store. Empty for records that
// predate provenance stamping.
func hostOf(s bench.Summary) string {
	var hosts []string
	seen := map[string]bool{}
	for _, tr := range s.Trials {
		if tr.Host == "" || seen[tr.Host] {
			continue
		}
		seen[tr.Host] = true
		hosts = append(hosts, tr.Host)
	}
	return strings.Join(hosts, ";")
}

// droppedOf sums recordable timeline events lost to full recorder buffers
// across a summary's trials. Non-zero only for recorded configurations whose
// timelines were truncated; surfaced in every format so clipped recordings
// cannot pass for complete ones.
func droppedOf(s bench.Summary) int64 {
	var n int64
	for _, tr := range s.Trials {
		n += tr.Dropped
	}
	return n
}

// emit renders the per-config summaries. Every format carries the seeds a
// summary aggregates, so stored numbers trace back to their RNG streams.
func emit(w io.Writer, format string, sums []bench.Summary, executed, cached int) error {
	switch format {
	case "table":
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "scenario\tphases\tfaults\tarrival\tds\talloc\treclaimer\tthreads\tbatch\tseeds\tmean ops/s\tmin\tmax\tpeak MiB\tpeak limbo\telapsed ms\tlat p99 (ms)\tlat p999 (ms)\tdropped")
		for _, s := range sums {
			p99, p999 := latOf(s)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\t%s\t%.0f\t%.0f\t%.0f\t%.1f\t%.0f\t%.1f\t%.2f\t%.2f\t%d\n",
				s.Cfg.Scenario, phasesOf(s), faultsOf(s), arrivalOf(s), s.Cfg.DataStructure, s.Cfg.Allocator, s.Cfg.Reclaimer,
				s.Cfg.Threads, s.Cfg.BatchSize, seedList(s),
				s.MeanOps, s.MinOps, s.MaxOps, s.MeanPeakMiB, peakLimboOf(s), elapsedMsOf(s), p99, p999, droppedOf(s))
		}
		return tw.Flush()
	case "csv":
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{
			"scenario", "phases", "faults", "arrival", "ds", "allocator", "reclaimer", "threads", "batch",
			"seeds", "trials", "host", "mean_ops", "min_ops", "max_ops", "mean_peak_mib",
			"mean_peak_limbo", "elapsed_ms", "lat_p99_ms", "lat_p999_ms", "dropped",
		}); err != nil {
			return err
		}
		for _, s := range sums {
			p99, p999 := latOf(s)
			if err := cw.Write([]string{
				s.Cfg.Scenario, phasesOf(s), faultsOf(s), arrivalOf(s), s.Cfg.DataStructure, s.Cfg.Allocator, s.Cfg.Reclaimer,
				strconv.Itoa(s.Cfg.Threads), strconv.Itoa(s.Cfg.BatchSize),
				seedList(s), strconv.Itoa(len(s.Trials)), hostOf(s),
				fmt.Sprintf("%.2f", s.MeanOps), fmt.Sprintf("%.2f", s.MinOps),
				fmt.Sprintf("%.2f", s.MaxOps), fmt.Sprintf("%.3f", s.MeanPeakMiB),
				fmt.Sprintf("%.1f", peakLimboOf(s)),
				fmt.Sprintf("%.3f", elapsedMsOf(s)),
				fmt.Sprintf("%.3f", p99), fmt.Sprintf("%.3f", p999),
				strconv.FormatInt(droppedOf(s), 10),
			}); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	case "json":
		type jsonSummary struct {
			Scenario      string   `json:"scenario"`
			Phases        string   `json:"phases,omitempty"`
			Faults        string   `json:"faults,omitempty"`
			Arrival       string   `json:"arrival,omitempty"`
			DataStructure string   `json:"ds"`
			Allocator     string   `json:"allocator"`
			Reclaimer     string   `json:"reclaimer"`
			Threads       int      `json:"threads"`
			BatchSize     int      `json:"batch"`
			Seeds         []uint64 `json:"seeds"`
			Trials        int      `json:"trials"`
			Host          string   `json:"host,omitempty"`
			MeanOps       float64  `json:"mean_ops"`
			MinOps        float64  `json:"min_ops"`
			MaxOps        float64  `json:"max_ops"`
			MeanPeakMiB   float64  `json:"mean_peak_mib"`
			MeanPeakLimbo float64  `json:"mean_peak_limbo"`
			ElapsedMs     float64  `json:"elapsed_ms,omitempty"`
			LatP99Ms      float64  `json:"lat_p99_ms,omitempty"`
			LatP999Ms     float64  `json:"lat_p999_ms,omitempty"`
			Dropped       int64    `json:"dropped,omitempty"`
		}
		doc := struct {
			Executed  int           `json:"executed"`
			Cached    int           `json:"cached"`
			Summaries []jsonSummary `json:"summaries"`
		}{Executed: executed, Cached: cached}
		for _, s := range sums {
			faults := faultsOf(s)
			if faults == "none" {
				faults = ""
			}
			arr := arrivalOf(s)
			if arr == "none" {
				arr = ""
			}
			p99, p999 := latOf(s)
			js := jsonSummary{
				Scenario: s.Cfg.Scenario, Phases: phasesOf(s), Faults: faults,
				Arrival:       arr,
				DataStructure: s.Cfg.DataStructure,
				Allocator:     s.Cfg.Allocator, Reclaimer: s.Cfg.Reclaimer,
				Threads: s.Cfg.Threads, BatchSize: s.Cfg.BatchSize,
				Trials: len(s.Trials), Host: hostOf(s),
				MeanOps: s.MeanOps, MinOps: s.MinOps, MaxOps: s.MaxOps,
				MeanPeakMiB: s.MeanPeakMiB, MeanPeakLimbo: peakLimboOf(s),
				ElapsedMs: elapsedMsOf(s),
				LatP99Ms:  p99, LatP999Ms: p999,
				Dropped: droppedOf(s),
			}
			for _, tr := range s.Trials {
				js.Seeds = append(js.Seeds, tr.Seed)
			}
			doc.Summaries = append(doc.Summaries, js)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	default:
		return fmt.Errorf("unknown format %q (table, json, csv)", format)
	}
}

func seedList(s bench.Summary) string {
	parts := make([]string, len(s.Trials))
	for i, tr := range s.Trials {
		parts[i] = strconv.FormatUint(tr.Seed, 10)
	}
	return strings.Join(parts, ";")
}

// runCompare diffs two stores and exits nonzero on regression.
func runCompare(oldPath, newPath string, tol, limboTol, latTol float64, format, outPath string) int {
	if oldPath == "" || newPath == "" {
		fmt.Fprintln(os.Stderr, "epochgrid: -compare OLD and -with NEW are both required")
		return 2
	}
	oldStore, err := loadStore(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}
	newStore, err := loadStore(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}
	rep := results.Compare(oldStore, newStore, results.Tolerances{RelOps: tol, LimboFactor: limboTol, LatencyFactor: latTol})

	out, cleanup, err := openOut(outPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}
	defer cleanup()
	switch format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
			return 1
		}
	default:
		fmt.Fprint(out, rep.String())
	}
	if rep.Regressed > 0 {
		fmt.Fprintf(os.Stderr, "epochgrid: %d configuration(s) regressed beyond ±%.1f%%\n",
			rep.Regressed, 100*rep.Tolerance)
		return 1
	}
	// A diff where nothing overlaps is a broken gate, not a pass: a schema
	// bump, a Normalize change, or edited sweep flags shifts every group
	// key, and silently reporting "0 regressed" would disable the CI
	// baseline check forever. Fail so the baseline gets refreshed.
	if matched := rep.Improved + rep.Regressed + rep.Unchanged; matched == 0 &&
		oldStore.Len() > 0 && newStore.Len() > 0 {
		fmt.Fprintln(os.Stderr,
			"epochgrid: no configuration group exists in both stores — keys changed (schema, normalization, or sweep flags); refresh the baseline")
		return 1
	}
	return 0
}

// openStore opens the sweep's store for appending and says so on warn, in
// one line, when it holds records of another schema: they load and stay, but
// their keys cannot match this build's, so the sweep re-executes them.
func openStore(path string, warn io.Writer) (*results.Store, error) {
	st, err := results.Open(path)
	if err != nil {
		return nil, err
	}
	other := st.Query(func(r results.Record) bool { return r.Schema != results.SchemaVersion })
	if len(other) > 0 {
		fmt.Fprintf(warn, "epochgrid: %d of %d records were written under schema %d; they are kept but cannot match v%d keys\n",
			len(other), st.Len(), other[0].Schema, results.SchemaVersion)
	}
	return st, nil
}

// loadStore reads a JSONL store without opening it for append (diffing
// must not touch either file).
func loadStore(path string) (*results.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st := results.NewMemStore()
	if err := st.Load(f); err != nil {
		return nil, err
	}
	return st, nil
}
