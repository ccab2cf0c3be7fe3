package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Output is what -out writes and -compare reads.
type Output struct {
	Host      Host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Workloads []WorkloadOutput `json:"workloads"`
}

// Host records where the numbers come from. Comparable is false on a host
// with fewer CPUs than the pinned GOMAXPROCS: the run still completes, but
// its timings say nothing about a 2-CPU host and -compare refuses them.
type Host struct {
	Hostname   string `json:"hostname"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Comparable bool   `json:"comparable"`
}

func hostInfo() Host {
	name, err := os.Hostname()
	if err != nil {
		name = "unknown"
	}
	return Host{
		Hostname:   name,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: pinnedProcs,
		Comparable: runtime.NumCPU() >= pinnedProcs,
	}
}

// WorkloadOutput is one workload's result. Failed counts trials that
// errored, were quarantined or were aborted, plus failed correctness checks;
// Attempted counts every trial and every check.
type WorkloadOutput struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is a median with its quartiles over N samples (repeats). Counts
// and one-per-process readings have N == 1 and Q1 == Q3 == Value.
type Metric struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
}

// quartiles returns the three cut points of vals the way Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), which is what
// the acceptance driver uses on the medians this program reports.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// samples collects one value per repeat under each metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// into summarises every collected metric into dst. Units are filled in from
// BENCHMARK.json afterwards (Spec.conform).
func (s samples) into(dst map[string]Metric) {
	for name, vals := range s {
		q1, med, q3 := quartiles(vals)
		dst[name] = Metric{Value: med, Q1: q1, Q3: q3, N: len(vals)}
	}
}

func single(v float64) Metric { return Metric{Value: v, Q1: v, Q3: v, N: 1} }

// checks counts attempts and failures for failed/attempted.
type checks struct {
	attempted, failed int
	failures          []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

func (c *checks) finish(wo *WorkloadOutput) {
	wo.Attempted, wo.Failed, wo.Failures = c.attempted, c.failed, c.failures
	wo.Correct = c.failed == 0 && c.attempted > 0
}

// driverLine is the last line of standard output, the form the acceptance
// driver parses.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printWorkload(w io.Writer, h Host, wo WorkloadOutput) {
	fmt.Fprintf(w, "workload %s  host %s %s nproc=%d GOMAXPROCS=%d comparable=%v\n",
		wo.Name, h.Hostname, h.GoVersion, h.NProc, h.GOMAXPROCS, h.Comparable)
	names := make([]string, 0, len(wo.Metrics))
	for name := range wo.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	line := driverLine{Correct: wo.Correct, Attempted: wo.Attempted, Failed: wo.Failed, Metrics: map[string]driverValue{}}
	for _, name := range names {
		m := wo.Metrics[name]
		fmt.Fprintf(w, "  %-34s %16.6g %-8s q1=%-12.6g q3=%-12.6g n=%d\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		line.Metrics[name] = driverValue{Value: m.Value, Unit: m.Unit}
	}
	for _, n := range wo.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range wo.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d failed_share=%g\n", wo.Attempted, wo.Failed, float64(wo.Failed)/float64(max(wo.Attempted, 1)))
	data, _ := json.Marshal(line) // plain numbers, strings and bools: cannot fail
	fmt.Fprintf(w, "%s\n", data)
}

// cpuNanos is the process's user+system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// hostAllocBytes is the Go heap's cumulative allocation so far.
func hostAllocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMiB is VmHWM, the process's resident high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
