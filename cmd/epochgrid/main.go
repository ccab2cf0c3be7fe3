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
// Regression diff between two stores:
//
//	epochgrid -compare old.jsonl -with new.jsonl -tol 0.05 -lat-tol 4
//
// exits 1 when any configuration regressed beyond the tolerance — mean
// throughput outside ±tol, peak limbo grown past -limbo-tol, or p999
// latency grown past -lat-tol — when the new store has a configuration
// group the old one lacks, when no group is in both, or when the new store is
// empty. That is CI's baseline gate; it prints -format table or json.
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
	var sums []results.Summary
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
	// The machine-greppable run line: the CI cache-hit gate matches
	// executed=0, the robustness gate quarantined=N.
	fmt.Fprintf(os.Stderr, "grid: configs=%d trials=%d executed=%d cached=%d quarantined=%d wall=%v\n",
		len(sums), executed+cached+quarantined, executed, cached, quarantined, time.Since(t0).Round(time.Millisecond))
	if quarantined > 0 {
		// The sweep completed and its results were emitted, but some trials
		// failed permanently — a distinct exit code so CI can tell "grid
		// survived wedges" (expected in fault sweeps) from a clean pass.
		return 3
	}
	return 0
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
func runExperiments(plan []experiments.Experiment, runner *grid.Runner, out io.Writer, reports bool) ([]results.Summary, error) {
	var all []results.Summary
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

// emit renders the per-config summaries. Every format carries the seeds a
// summary aggregates, so stored numbers trace back to their RNG streams.
func emit(w io.Writer, format string, sums []results.Summary, executed, cached int) error {
	switch format {
	case "table":
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "scenario\tphases\tfaults\tarrival\tds\talloc\treclaimer\tthreads\tbatch\tseeds\tmean ops/s\tmin\tmax\tpeak MiB\tpeak limbo\telapsed ms\tlat p99 (ms)\tlat p999 (ms)\tdropped")
		for _, s := range sums {
			c := s.Config
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\t%s\t%.0f\t%.0f\t%.0f\t%.1f\t%.0f\t%.1f\t%.2f\t%.2f\t%d\n",
				c.Scenario, s.Phases, bench.FormatFaults(c.Faults), s.Arrival, c.DataStructure, c.Allocator, c.Reclaimer,
				c.Threads, c.BatchSize, joinSeeds(s.Seeds),
				s.MeanOps, s.MinOps, s.MaxOps, s.MeanPeakMiB, s.MeanPeakLimbo, s.MeanElapsedMs, ms(s.LatP99Ns), ms(s.LatP999Ns), s.Dropped)
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
			c := s.Config
			if err := cw.Write([]string{
				c.Scenario, s.Phases, bench.FormatFaults(c.Faults), s.Arrival, c.DataStructure, c.Allocator, c.Reclaimer,
				strconv.Itoa(c.Threads), strconv.Itoa(c.BatchSize),
				joinSeeds(s.Seeds), strconv.Itoa(s.N), s.Host,
				fmt.Sprintf("%.2f", s.MeanOps), fmt.Sprintf("%.2f", s.MinOps),
				fmt.Sprintf("%.2f", s.MaxOps), fmt.Sprintf("%.3f", s.MeanPeakMiB),
				fmt.Sprintf("%.1f", s.MeanPeakLimbo),
				fmt.Sprintf("%.3f", s.MeanElapsedMs),
				fmt.Sprintf("%.3f", ms(s.LatP99Ns)), fmt.Sprintf("%.3f", ms(s.LatP999Ns)),
				strconv.FormatInt(s.Dropped, 10),
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
		// The closed loop and the healthy plan are the JSON's absent keys.
		orNone := func(v string) string {
			if v == "none" {
				return ""
			}
			return v
		}
		for _, s := range sums {
			c := s.Config
			doc.Summaries = append(doc.Summaries, jsonSummary{
				Scenario: c.Scenario, Phases: s.Phases, Faults: orNone(bench.FormatFaults(c.Faults)),
				Arrival:       orNone(s.Arrival),
				DataStructure: c.DataStructure,
				Allocator:     c.Allocator, Reclaimer: c.Reclaimer,
				Threads: c.Threads, BatchSize: c.BatchSize,
				Seeds: s.Seeds, Trials: s.N, Host: s.Host,
				MeanOps: s.MeanOps, MinOps: s.MinOps, MaxOps: s.MaxOps,
				MeanPeakMiB: s.MeanPeakMiB, MeanPeakLimbo: s.MeanPeakLimbo,
				ElapsedMs: s.MeanElapsedMs,
				LatP99Ms:  ms(s.LatP99Ns), LatP999Ms: ms(s.LatP999Ns),
				Dropped: s.Dropped,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	default:
		return fmt.Errorf("unknown format %q (table, json, csv)", format)
	}
}

// ms renders a latency quantile in milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// joinSeeds renders a summary's seeds for the table and CSV, ';'-joined.
func joinSeeds(seeds []uint64) string {
	parts := make([]string, len(seeds))
	for i, seed := range seeds {
		parts[i] = strconv.FormatUint(seed, 10)
	}
	return strings.Join(parts, ";")
}

// runCompare diffs two stores and exits nonzero on regression.
func runCompare(oldPath, newPath string, tol, limboTol, latTol float64, format, outPath string) int {
	if oldPath == "" || newPath == "" {
		fmt.Fprintln(os.Stderr, "epochgrid: -compare OLD and -with NEW are both required")
		return 2
	}
	if format != "table" && format != "json" {
		fmt.Fprintf(os.Stderr, "epochgrid: -compare prints format table or json, not %q\n", format)
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
	// A sweep that stored nothing measured nothing: passing it would let a
	// broken sweep through the gate.
	if newStore.Len() == 0 {
		fmt.Fprintf(os.Stderr, "epochgrid: the new store %s holds no trial; there is nothing to gate\n", newPath)
		return 1
	}
	// A diff where nothing overlaps is a broken gate, not a pass: a schema
	// bump, a Normalize change, or edited sweep flags shifts every group
	// key, and silently reporting "0 regressed" would disable the CI
	// baseline check forever. Fail so the baseline gets refreshed.
	if matched := rep.Improved + rep.Regressed + rep.Unchanged; matched == 0 {
		fmt.Fprintln(os.Stderr,
			"epochgrid: no configuration group exists in both stores — keys changed (schema, normalization, or sweep flags); refresh the baseline")
		return 1
	}
	// A group only the new store has was measured against nothing: the
	// baseline predates the sweep's flags or was cut from fewer sweeps. Old
	// groups the new store lacks are fine — one baseline serves several
	// sweeps, each a subset of it.
	if rep.OnlyNew > 0 {
		fmt.Fprintf(os.Stderr,
			"epochgrid: %d configuration group(s) of the new store are missing from the old one; refresh the baseline\n", rep.OnlyNew)
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
