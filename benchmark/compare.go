package main

import (
	"errors"
	"fmt"
	"io"
)

// Verdicts of -compare for one workload × end-to-end metric.
const (
	verdictWithin     = "within"     // medians within the bound of each other
	verdictWorse      = "worse"      // b's median worse than a's by more than the bound
	verdictBetter     = "better"     // b's median better than a's by more than the bound
	verdictUnresolved = "unresolved" // medians differ beyond the bound but the quartile ranges overlap
)

// runCompare prints, for every workload and end-to-end metric the two
// outputs share, how b stands against a under the bound BENCHMARK.json gives
// that metric. It exits 1 if anything is worse or unresolved, 2 if the
// outputs cannot be compared at all.
func runCompare(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	var a, b Output
	if err := errors.Join(readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := sameShape(a, b); err != nil {
		fmt.Fprintln(stderr, "benchmark: refusing to compare:", err)
		return 2
	}
	bad := 0
	for _, row := range compareOutputs(spec, a, b) {
		fmt.Fprintf(stdout, "%-22s %-24s %14.6g -> %-14.6g %+7.2f%%  bound %4.1f%%  %s\n",
			row.Workload, row.Metric, row.A.Value, row.B.Value, 100*row.Change, 100*row.Bound, row.Verdict)
		if row.Verdict == verdictWorse || row.Verdict == verdictUnresolved {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d worse or unresolved\n", bad)
		return 1
	}
	return 0
}

// sameShape rejects pairs whose timings do not describe the same machine
// shape.
func sameShape(a, b Output) error {
	switch {
	case !a.Host.Comparable || !b.Host.Comparable:
		return fmt.Errorf("an output is marked comparable:false (host has fewer CPUs than GOMAXPROCS)")
	case a.Host.NProc != b.Host.NProc:
		return fmt.Errorf("nproc differs: %d and %d", a.Host.NProc, b.Host.NProc)
	case a.Host.GOMAXPROCS != b.Host.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d and %d", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	case a.Trace != b.Trace:
		return fmt.Errorf("one output is traced and the other is not")
	}
	return nil
}

// compareRow is one line of -compare.
type compareRow struct {
	Workload, Metric string
	A, B             Metric
	// Change is (b − a) ÷ a, signed so that positive is worse.
	Change  float64
	Bound   float64
	Verdict string
}

func compareOutputs(spec *Spec, a, b Output) []compareRow {
	var rows []compareRow
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, d := range spec.EndToEnd {
				ma, okA := wa.Metrics[d.Name]
				mb, okB := wb.Metrics[d.Name]
				if okA && okB {
					rows = append(rows, compareMetric(wa.Name, d, ma, mb))
				}
			}
		}
	}
	return rows
}

func compareMetric(workload string, d MetricDecl, a, b Metric) compareRow {
	row := compareRow{Workload: workload, Metric: d.Name, A: a, B: b, Bound: d.Bound}
	if a.Value == 0 {
		row.Verdict = verdictUnresolved
		return row
	}
	row.Change = (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		row.Change = -row.Change
	}
	// A difference beyond the bound between medians whose quartile ranges
	// still overlap is within the runs' own spread: it decides nothing.
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	switch {
	case row.Change > d.Bound && overlap, row.Change < -d.Bound && overlap:
		row.Verdict = verdictUnresolved
	case row.Change > d.Bound:
		row.Verdict = verdictWorse
	case row.Change < -d.Bound:
		row.Verdict = verdictBetter
	default:
		row.Verdict = verdictWithin
	}
	return row
}
