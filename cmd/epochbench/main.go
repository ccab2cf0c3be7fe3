// Command epochbench reproduces the tables and figures of "Are Your Epochs
// Too Epic? Batch Free Can Be Harmful" (PPoPP '24) on the simulated
// allocator substrate.
//
// Usage:
//
//	epochbench -list
//	epochbench -exp table2
//	epochbench -exp exp1 -threads 6,12,24,48 -dur 300ms -trials 3
//	epochbench -exp fig13 -keyrange 16384
//	epochbench -exp exp2 -scenario zipf
//	epochbench -exp exp1 -parallel 4 -store results.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/arrival"
	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
)

// main delegates to realMain so deferred cleanup — flushing the CPU profile,
// writing the heap profile — runs on every exit path, including failed
// experiments (os.Exit would skip the defers and truncate the profiles).
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		expID      = flag.String("exp", "", "experiment ID (see -list)")
		list       = flag.Bool("list", false, "list available experiments")
		threads    = flag.String("threads", "", "comma-separated thread sweep (default: paper counts)")
		at         = flag.Int("at", 0, "thread count for single-point experiments (default 192)")
		dur        = flag.Duration("dur", 0, "measured window per trial (default 300ms)")
		fixedOps   = flag.Int("ops", 0, "run exactly N ops per thread instead of the wall-clock window (deterministic with 1 thread)")
		trials     = flag.Int("trials", 0, "trials per configuration (default 1)")
		keyrange   = flag.Int64("keyrange", 0, "key universe size (default 32768)")
		batch      = flag.Int("batch", 0, "limbo-bag batch size (default 2048)")
		dsName     = flag.String("ds", "", "data structure: abtree, occtree, dgtree")
		scenario   = flag.String("scenario", "", "workload scenario (default \"paper\"; see -list)")
		phases     = flag.String("phases", "", "phase schedule applied to every trial: comma-separated [scenario:]LIVExOPS (e.g. \"4x2000,2x2000\")")
		faults     = flag.String("faults", "", "fault plan applied to every trial: comma-separated kind:wW@AT[~SPAN][/EVERY][xFACTOR] (e.g. \"stall:w0@4096\")")
		arrivalStr = flag.String("arrival", "", "arrival process applied to every trial: KIND:RATE[@PERIOD][~PARAM] (e.g. \"poisson:150000\"); empty or \"none\" = closed loop")
		deadline   = flag.Duration("deadline", 0, "per-trial watchdog deadline: abort a trial whose op progress stalls this long (0 = no watchdog)")
		retries    = flag.Int("retries", 0, "re-execute a failed trial this many times before quarantining it")
		all        = flag.Bool("all", false, "run every registered experiment")
		parallel   = flag.Int("parallel", 1, "max in-flight trials for experiment sweeps (1 = serial, bit-compatible order)")
		storePath  = flag.String("store", "", "JSONL results store: cached trials skip execution, completed trials append")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	// Profiles capture the measured work, not the setup: capture starts only
	// after the first trial's prefill completes (bench.OnFirstPrefillDone),
	// so a single-trial profiling run — the typical -cpuprofile invocation —
	// covers exactly the measured window. CPU capture simply starts late;
	// allocation sampling is disabled up front and re-enabled at the same
	// point, so the heap profile excludes the prefill's churn too.
	var prefillFired, cpuStarted atomic.Bool
	if *cpuprofile != "" || *memprofile != "" {
		var cpuFile *os.File
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "epochbench: cpuprofile: %v\n", err)
				return 1
			}
			cpuFile = f
			defer func() {
				if cpuStarted.Load() {
					pprof.StopCPUProfile()
					f.Close()
					return
				}
				// Capture never started: an empty pprof file would only
				// confuse `go tool pprof`, so remove it and say why — either
				// no trial executed a prefill (e.g. every trial was a store
				// cache hit, or the run failed before its first trial), or
				// StartCPUProfile itself failed (already reported).
				f.Close()
				os.Remove(*cpuprofile)
				if !prefillFired.Load() {
					fmt.Fprintf(os.Stderr, "epochbench: cpuprofile: no trial ran a prefill, nothing captured; removed %s\n", *cpuprofile)
				} else {
					fmt.Fprintf(os.Stderr, "epochbench: cpuprofile: capture failed to start; removed %s\n", *cpuprofile)
				}
			}()
		}
		memRate := runtime.MemProfileRate
		if *memprofile != "" {
			runtime.MemProfileRate = 0 // no sampling until the window opens
			defer func() {
				if !prefillFired.Load() {
					fmt.Fprintf(os.Stderr, "epochbench: memprofile: no trial ran a prefill, nothing sampled; skipping %s\n", *memprofile)
					return
				}
				f, err := os.Create(*memprofile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "epochbench: memprofile: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC() // materialize the final live set
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "epochbench: memprofile: %v\n", err)
				}
			}()
		}
		bench.OnFirstPrefillDone(func() {
			prefillFired.Store(true)
			if cpuFile != nil {
				if err := pprof.StartCPUProfile(cpuFile); err != nil {
					fmt.Fprintf(os.Stderr, "epochbench: cpuprofile: %v\n", err)
				} else {
					cpuStarted.Store(true)
				}
			}
			// Heap sampling resumes regardless of the CPU profile's fate.
			if *memprofile != "" {
				runtime.MemProfileRate = memRate
			}
		})
	}

	if *list {
		fmt.Println("experiments:")
		for _, id := range bench.ExperimentIDs() {
			e, _ := bench.Get(id)
			fmt.Printf("  %-8s %s\n", id, e.Title)
		}
		fmt.Printf("\nscenarios: %s\n", strings.Join(bench.Scenarios(), ", "))
		return 0
	}

	// Every experiment sweep routes through the grid runner. The default
	// (serial, no store) executes trials in exactly the order — and with
	// exactly the seeds — the former inline loops used; -parallel and
	// -store add concurrency and cached resumability on top.
	runner := &grid.Runner{Parallel: *parallel, Deadline: *deadline, Retries: *retries}
	var faultPlan []bench.FaultSpec
	if *faults != "" {
		fs, err := bench.ParseFaults(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "epochbench: -faults: %v\n", err)
			return 2
		}
		// Reject unknown kinds and bad parameters now, not one trial at a
		// time: probe with a thread count that covers every targeted worker,
		// so only per-trial facts (the actual thread count) are left to the
		// trial itself.
		probe := bench.WorkloadConfig{Threads: 1, Faults: fs}
		for _, f := range fs {
			if f.Worker+1 > probe.Threads {
				probe.Threads = f.Worker + 1
			}
		}
		if err := bench.ValidateFaults(probe); err != nil {
			fmt.Fprintf(os.Stderr, "epochbench: -faults: %v\n", err)
			return 2
		}
		runner.Faults = fs
		faultPlan = fs
	}
	if *storePath != "" {
		st, err := results.Open(*storePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "epochbench: %v\n", err)
			return 1
		}
		defer st.Close()
		// Same line as epochgrid's openStore: records of another schema load
		// and stay, but cannot match this build's keys.
		other := st.Query(func(r results.Record) bool { return r.Schema != results.SchemaVersion })
		if len(other) > 0 {
			fmt.Fprintf(os.Stderr, "epochbench: %d of %d records were written under schema %d; they are kept but cannot match v%d keys\n",
				len(other), st.Len(), other[0].Schema, results.SchemaVersion)
		}
		runner.Store = st
	}
	opts := bench.Options{
		AtThreads:     *at,
		Duration:      *dur,
		FixedOps:      *fixedOps,
		Trials:        *trials,
		KeyRange:      *keyrange,
		BatchSize:     *batch,
		DataStructure: *dsName,
		Scenario:      *scenario,
		// Faults/Deadline ride on the options as well as the runner: the
		// diagnostic experiments call RunTrial directly and would otherwise
		// silently ignore the flags.
		Faults:   faultPlan,
		Deadline: *deadline,
		RunGrid:  runner.GridFunc(),
	}
	if *arrivalStr != "" {
		sp, err := arrival.Parse(*arrivalStr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "epochbench: -arrival: %v\n", err)
			return 2
		}
		if !sp.IsZero() {
			opts.Arrival = arrival.Format(sp)
		}
	}
	if *phases != "" {
		ph, err := bench.ParsePhases(*phases)
		if err != nil {
			fmt.Fprintf(os.Stderr, "epochbench: -phases: %v\n", err)
			return 2
		}
		opts.Phases = ph
	}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "epochbench: bad thread count %q\n", part)
				return 2
			}
			opts.Threads = append(opts.Threads, n)
		}
	}

	run := func(id string) int {
		e, ok := bench.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "epochbench: unknown experiment %q (try -list)\n", id)
			return 2
		}
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		t0 := time.Now()
		out, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "epochbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
		if *storePath != "" {
			executed, cached := runner.Counts()
			fmt.Printf("(store %s: executed=%d cached=%d quarantined=%d)\n\n",
				*storePath, executed, cached, runner.Quarantines())
		}
		return 0
	}

	switch {
	case *all:
		for _, id := range bench.ExperimentIDs() {
			if code := run(id); code != 0 {
				return code
			}
		}
		return 0
	case *expID != "":
		return run(*expID)
	default:
		fmt.Fprintln(os.Stderr, "epochbench: pass -exp <id>, -all, or -list")
		return 2
	}
}
