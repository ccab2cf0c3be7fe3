// Command benchmark is the repository's yardstick: six workloads, end-to-end
// metrics sampled over repeated trials, and a per-layer trace taken from
// outside the layers (see README.md in this directory).
//
//	go run ./benchmark -workload update_batchfree -seed 1
//	go run ./benchmark -workload sweep_fleet -seed 1 -trace 1 -out fleet.json
//	go run ./benchmark -all -seed 1 -out all.json
//	go run ./benchmark -compare a.json b.json
//
// It generates all load from this one process, pins GOMAXPROCS to 2, checks
// that the program's outputs are correct, and exits non-zero on a failed
// check. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// pinnedProcs is the GOMAXPROCS every run uses, so outputs from hosts with
// different core counts are comparable.
const pinnedProcs = 2

// scratchRoot holds everything a run writes (sweep stores, per-workload
// outputs of -all): inside the working directory, never in the system temp
// dir, and ignored by git.
const scratchRoot = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run (see -list)")
		all      = fs.Bool("all", false, "run every workload, one child process each")
		list     = fs.Bool("list", false, "list the workloads and exit")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Int("seconds", defaultSeconds, "measured time per workload run")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
		out      = fs.String("out", "", "also write the full output (host block, quartiles) to this JSON file")
		compare  = fs.Bool("compare", false, "compare two output files: -compare a.json b.json")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark definition, for -compare's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two output files")
			return 2
		}
		return runCompare(*specPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintln(stdout, w.name)
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	opt := options{
		seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1, size: fullSize,
	}
	if len(spec.Paths) > 0 {
		opt.fingerprints = filepath.Join(filepath.Dir(*specPath), spec.Paths[0], "testdata", "fingerprints.json")
	}

	var res Output
	switch {
	case *all:
		if res, err = runAll(opt, *specPath, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (see -list)\n", *name)
			return 2
		}
		runtime.GOMAXPROCS(pinnedProcs)
		dir, err := scratchDir()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		opt.dir = dir
		wo := w.run(opt, spec)
		os.RemoveAll(dir)
		res = Output{Host: hostInfo(), Seed: opt.seed, Trace: opt.trace, Workloads: []WorkloadOutput{wo}}
		printWorkload(stdout, res.Host, wo)
	default:
		fmt.Fprintln(stderr, "benchmark: one of -workload, -all, -list or -compare is required")
		return 2
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, wo := range res.Workloads {
		if !wo.Correct {
			return 1
		}
	}
	return 0
}

// runAll runs each workload in a child process of this same binary, so that
// host_peak_rss_mib is the high-water mark of one workload and not of
// whichever ran before it. The children print their own metrics.
func runAll(opt options, specPath string, stdout, stderr io.Writer) (Output, error) {
	self, err := os.Executable()
	if err != nil {
		return Output{}, err
	}
	dir, err := scratchDir()
	if err != nil {
		return Output{}, err
	}
	defer os.RemoveAll(dir)
	res := Output{Host: hostInfo(), Seed: opt.seed, Trace: opt.trace}
	traceArg := "0"
	if opt.trace {
		traceArg = "1"
	}
	for _, w := range workloads {
		file := filepath.Join(dir, w.name+".json")
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(opt.seed),
			"-seconds", fmt.Sprint(int(opt.budget/time.Second)), "-trace", traceArg, "-spec", specPath, "-out", file)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		runErr := cmd.Run()
		var child Output
		if err := readJSON(file, &child); err != nil {
			// No output file means the child died before measuring anything.
			return Output{}, fmt.Errorf("workload %s: %v (child: %v)", w.name, err, runErr)
		}
		res.Host = child.Host
		res.Workloads = append(res.Workloads, child.Workloads...)
	}
	return res, nil
}

func scratchDir() (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchRoot, "run-")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
