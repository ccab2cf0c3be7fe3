package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/results"
	"repro/internal/smr"
	"repro/internal/timeline"
)

// The shared renderers: a thread × column pivot (pivot), ORIG-vs-AF ratio rows
// (pairTable, origVsAFReport), per-trial stat rows (statRows), timeline and
// garbage-curve panels (panels) and the latency arms (latReport). A figure's
// Report supplies its title, its columns and its closing lines and leaves the
// rest to them.

// Configuration fields the renderers group and look up by.
func threadsOf(c bench.WorkloadConfig) int      { return c.Threads }
func reclaimerOf(c bench.WorkloadConfig) string { return c.Reclaimer }
func dsOf(c bench.WorkloadConfig) string        { return c.DataStructure }

// distinct lists f over the summaries' configurations in order of first
// appearance, which for one sweep is the order of the axis f reads.
func distinct[T comparable](sums []results.Summary, f func(bench.WorkloadConfig) T) []T {
	var out []T
	seen := map[T]bool{}
	for _, s := range sums {
		if v := f(s.Config); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// where keeps the summaries whose configuration satisfies keep.
func where(sums []results.Summary, keep func(bench.WorkloadConfig) bool) []results.Summary {
	var out []results.Summary
	for _, s := range sums {
		if keep(s.Config) {
			out = append(out, s)
		}
	}
	return out
}

// find returns the summary at a thread count (0 = any) and reclaimer; the
// zero Summary when the sweep holds none.
func find(sums []results.Summary, threads int, reclaimer string) results.Summary {
	for _, s := range sums {
		if (threads == 0 || s.Config.Threads == threads) && s.Config.Reclaimer == reclaimer {
			return s
		}
	}
	return results.Summary{}
}

// trialOf is the one trial of a point configuration; the zero TrialResult when
// it was quarantined.
func trialOf(s results.Summary) bench.TrialResult {
	if len(s.Trials) == 0 {
		return bench.TrialResult{}
	}
	return s.Trials[0]
}

// pivot renders one row per thread count and one column group per value of
// col: mean ops/s under header value+opsHdr and, when mibHdr is set, mean peak
// MiB under value+mibHdr.
func pivot(sums []results.Summary, col func(bench.WorkloadConfig) string, opsHdr, mibHdr string) *table {
	cols := distinct(sums, col)
	header := []string{"threads"}
	for _, c := range cols {
		header = append(header, c+opsHdr)
		if mibHdr != "" {
			header = append(header, c+mibHdr)
		}
	}
	tb := newTable(header...)
	for _, n := range distinct(sums, threadsOf) {
		row := []string{fmt.Sprint(n)}
		for _, c := range cols {
			cell := where(sums, func(cfg bench.WorkloadConfig) bool { return cfg.Threads == n && col(cfg) == c })
			var s results.Summary
			if len(cell) > 0 {
				s = cell[0]
			}
			row = append(row, fmtOps(s.MeanOps))
			if mibHdr != "" {
				row = append(row, fmt.Sprintf("%.1f", s.MeanPeakMiB))
			}
		}
		tb.add(row...)
	}
	return tb
}

func fig1Report(sw [][]results.Summary) string {
	labels := map[string]string{"debra": "Fig. 1a/1b — DEBRA", "none": "Fig. 1c/1d — leaky (none)"}
	var sb strings.Builder
	for _, rec := range distinct(sw[0], reclaimerOf) {
		panel := where(sw[0], func(c bench.WorkloadConfig) bool { return c.Reclaimer == rec })
		fmt.Fprintf(&sb, "%s\n%s\n", labels[rec], pivot(panel, dsOf, " ops/s", " peak MiB"))
	}
	return sb.String()
}

func tokenSweepReport(title string) func([][]results.Summary) string {
	return func(sw [][]results.Summary) string {
		return title + "\n" + pivot(sw[0], reclaimerOf, " ops/s", " MiB").String()
	}
}

// exp1Report is Experiment 1's table and the paper's "averaged across all
// thread counts" comparisons.
func exp1Report(sw [][]results.Summary) string {
	sums := sw[0]
	var sb strings.Builder
	fmt.Fprintf(&sb, "Experiment 1 (Fig. 11a) — %s, scenario %s, JEmalloc:\n%s",
		sums[0].Config.DataStructure, sums[0].Config.Scenario, pivot(sums, reclaimerOf, "", ""))
	mean := func(rec string) float64 {
		var sum float64
		of := where(sums, func(c bench.WorkloadConfig) bool { return c.Reclaimer == rec })
		for _, s := range of {
			sum += s.MeanOps
		}
		return sum / float64(max(len(of), 1))
	}
	for _, vs := range []struct{ rec, label string }{
		{"nbrplus", "\ntoken_af / nbr+ (mean over thread counts)"}, {"none", "token_af / none"}, {"hp", "token_af / hp"},
	} {
		if mean(vs.rec) > 0 {
			fmt.Fprintf(&sb, "%s: %s\n", vs.label, ratio(mean("token_af"), mean(vs.rec)))
		}
	}
	return sb.String()
}

// pairTable renders one ORIG-vs-AF row per Experiment 2 pair from a point
// sweep, and counts the pairs AF improved and improved by more than half.
func pairTable(sums []results.Summary, header ...string) (tb *table, improved, big int) {
	tb = newTable(header...)
	for _, pair := range smr.Experiment2Pairs() {
		orig, af := find(sums, 0, pair[0]).MeanOps, find(sums, 0, pair[1]).MeanOps
		if af > orig {
			improved++
		}
		if af > 1.5*orig {
			big++
		}
		tb.addf("%s\t%s\t%s\t%s", pair[0], fmtOps(orig), fmtOps(af), ratio(af, orig))
	}
	return tb, improved, big
}

func exp2Report(sw [][]results.Summary) string {
	tb, improved, big := pairTable(sw[0], "reclaimer", "ORIG ops/s", "AF ops/s", "AF/ORIG")
	cfg := sw[0][0].Config
	return fmt.Sprintf(
		"Experiment 2 (Fig. 11b) — AF vs ORIG, %d threads, batch %d:\n%s\n%d/10 improved, %d/10 by >50%%\n",
		cfg.Threads, cfg.BatchSize, tb, improved, big)
}

// origVsAFReport renders the appendix C/D panels: for each reclaimer pair,
// ORIG vs AF throughput across the thread sweep.
func origVsAFReport(title string) func([][]results.Summary) string {
	return func(sw [][]results.Summary) string {
		sums := sw[0]
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s — ORIG vs AF across threads:\n", title)
		for _, pair := range smr.Experiment2Pairs() {
			tb := newTable("threads", pair[0], pair[1], "AF/ORIG")
			for _, n := range distinct(sums, threadsOf) {
				orig, af := find(sums, n, pair[0]).MeanOps, find(sums, n, pair[1]).MeanOps
				tb.addf("%d\t%s\t%s\t%s", n, fmtOps(orig), fmtOps(af), ratio(af, orig))
			}
			fmt.Fprintf(&sb, "(%s)\n%s\n", pair[0], tb)
		}
		return sb.String()
	}
}

// machineReport is Experiment 1's headline rows across threads, then the
// AF-vs-ORIG comparison at full load, under the sweeps' machine cost model.
func machineReport(heading string) func([][]results.Summary) string {
	return func(sw [][]results.Summary) string {
		cfg := sw[1][0].Config
		pairs, _, _ := pairTable(sw[1], "reclaimer", "ORIG", "AF", "AF/ORIG")
		return fmt.Sprintf("%s (threads/socket %d, sockets %d):\n%s\nAF vs ORIG at %d threads:\n%s",
			heading, cfg.Cost.ThreadsPerSocket, cfg.Cost.Sockets, pivot(sw[0], reclaimerOf, "", ""), cfg.Threads, pairs)
	}
}

// stat is one column of a per-trial stat table.
type stat struct {
	header string
	cell   func(bench.TrialResult) string
}

var (
	statOps    = stat{"ops/s", func(tr bench.TrialResult) string { return fmtOps(tr.OpsPerSec) }}
	statEpochs = stat{"epochs", func(tr bench.TrialResult) string { return fmt.Sprint(tr.SMR.Epochs) }}
	statFreed  = stat{"freed", func(tr bench.TrialResult) string { return fmtCount(tr.SMR.Freed) }}
	statFree   = stat{"% free", func(tr bench.TrialResult) string { return fmt.Sprintf("%.1f", tr.PctFree) }}
	statFlush  = stat{"% flush", func(tr bench.TrialResult) string { return fmt.Sprintf("%.1f", tr.PctFlush) }}
	statLock   = stat{"% lock", func(tr bench.TrialResult) string { return fmt.Sprintf("%.1f", tr.PctLock) }}
	statPeak   = stat{"peak MiB", func(tr bench.TrialResult) string { return fmt.Sprintf("%.1f", tr.PeakMiB) }}
)

// statRows renders one row per configuration of a point sweep: its label
// under labelHdr, then the chosen stats of its trial.
func statRows(sums []results.Summary, labelHdr string, label func(bench.WorkloadConfig) string, stats ...stat) *table {
	header := []string{labelHdr}
	for _, st := range stats {
		header = append(header, st.header)
	}
	tb := newTable(header...)
	for _, s := range sums {
		row := []string{label(s.Config)}
		for _, st := range stats {
			row = append(row, st.cell(trialOf(s)))
		}
		tb.add(row...)
	}
	return tb
}

// approach labels a batch-vs-amortized row the way Tables 2 and 3 do.
func approach(c bench.WorkloadConfig) string {
	label := strings.ToUpper(c.Allocator[:2]) + " batch"
	if c.Reclaimer == "debra_af" {
		label = strings.ToUpper(c.Allocator[:2]) + " amort."
	}
	return label
}

// amortSpeedup is debra_af over debra on one allocator of a point sweep.
func amortSpeedup(sums []results.Summary, alloc string) string {
	on := where(sums, func(c bench.WorkloadConfig) bool { return c.Allocator == alloc })
	return ratio(find(on, 0, "debra_af").MeanOps, find(on, 0, "debra").MeanOps)
}

func table1Report(sw [][]results.Summary) string {
	return "Table 1 — JEmalloc free overhead (DEBRA, ABtree):\n" +
		statRows(sw[0], "threads", func(c bench.WorkloadConfig) string { return fmt.Sprint(c.Threads) },
			statOps, statEpochs, statFree, statFlush, statLock).String()
}

func table2Report(sw [][]results.Summary) string {
	return fmt.Sprintf("Table 2 — amortized vs batch free, %d threads (amort/batch speedup %s):\n%s",
		sw[0][0].Config.Threads, amortSpeedup(sw[0], "jemalloc"),
		statRows(sw[0], "approach", approach, statOps, statFreed, statFree, statFlush, statLock))
}

func table3Report(sw [][]results.Summary) string {
	return fmt.Sprintf("Table 3 — additional allocators, %d threads (TC amort/batch %s, MI amort/batch %s):\n%s",
		sw[0][0].Config.Threads, amortSpeedup(sw[0], "tcmalloc"), amortSpeedup(sw[0], "mimalloc"),
		statRows(sw[0], "approach", approach, statOps, statFreed, statFree))
}

func table4Report(sw [][]results.Summary) string {
	names := map[string]string{"token_naive": "Naive", "token_pass": "Pass-first", "token_periodic": "Periodic", "token_af": "Amortized"}
	return fmt.Sprintf("Table 4 — Token-EBR variants, %d threads:\n%s", sw[0][0].Config.Threads,
		statRows(sw[0], "algorithm", func(c bench.WorkloadConfig) string { return names[c.Reclaimer] },
			statOps, statFree, statFreed, statEpochs, statPeak))
}

// panel says what one recorded trial's panel shows under its heading: a
// timeline of kind's intervals over rows thread rows, a garbage curve curve
// columns wide, or both (0 leaves a part out).
type panel struct {
	kind        timeline.EventKind
	rows, curve int
}

// panels renders one panel per recorded trial of a point sweep under
// heading's line.
func panels(sums []results.Summary, p panel, heading func(i int, c bench.WorkloadConfig, tr bench.TrialResult) string) string {
	var sb strings.Builder
	for i, s := range sums {
		tr := trialOf(s)
		sb.WriteString(heading(i, s.Config, tr) + "\n")
		if p.rows > 0 {
			sb.WriteString(timeline.RenderASCII(tr.Recorder, timeline.RenderOptions{
				Width: 100, MaxRows: p.rows, Kinds: []timeline.EventKind{p.kind},
			}))
		}
		if p.curve > 0 {
			sb.WriteString(timeline.RenderGarbageCurve(tr.Recorder, p.curve))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// freeCalls counts the recorded (at or over the visibility threshold) free calls.
func freeCalls(tr bench.TrialResult) (n int) {
	for tid := 0; tid < tr.Recorder.Threads(); tid++ {
		for e := range tr.Recorder.Events(tid) {
			if e.Kind == timeline.KindFreeCall {
				n++
			}
		}
	}
	return n
}

// batchOrAF labels a debra / debra_af panel: batch under one figure part,
// amortized under the other.
func batchOrAF(c bench.WorkloadConfig, batch, af string) string {
	if c.Reclaimer == "debra_af" {
		return af + " — amortized free (debra_af)"
	}
	return batch + " — batch free (debra)"
}

func fig2Report(sw [][]results.Summary) string {
	return panels(sw[0], panel{kind: timeline.KindBatchFree, rows: 20},
		func(_ int, c bench.WorkloadConfig, tr bench.TrialResult) string {
			return fmt.Sprintf("Fig. 2 — DEBRA batch frees, %d threads (ops/s %s%s):", c.Threads, fmtOps(tr.OpsPerSec), fmtDropped(tr))
		})
}

func fig3Report(sw [][]results.Summary) string {
	return panels(sw[0], panel{kind: timeline.KindFreeCall, rows: 20},
		func(_ int, c bench.WorkloadConfig, tr bench.TrialResult) string {
			var threshold time.Duration
			if tr.Recorder != nil {
				threshold = tr.Recorder.FreeCallThreshold
			}
			return fmt.Sprintf("%s — %d free calls >= %v (ops/s %s%s):", batchOrAF(c, "Fig. 3a", "Fig. 3b"),
				freeCalls(tr), threshold, fmtOps(tr.OpsPerSec), fmtDropped(tr))
		})
}

func fig4Report(sw [][]results.Summary) string {
	return panels(sw[0], panel{curve: 60}, func(_ int, c bench.WorkloadConfig, _ bench.TrialResult) string {
		return batchOrAF(c, "Fig. 4 (upper)", "Fig. 4 (lower)") + ":"
	})
}

// tokenTimelineReport is the combined timeline + garbage-curve panel of Figs.
// 6-9. Fig. 9 shows individual free calls >= 0.1 ms: the AF variant has no
// batch frees to show.
func tokenTimelineReport(sw [][]results.Summary) string {
	fig := map[string]string{"token_naive": "Fig6", "token_pass": "Fig7", "token_periodic": "Fig8", "token_af": "Fig9"}
	p := panel{kind: timeline.KindBatchFree, rows: 20, curve: 60}
	if sw[0][0].Config.Reclaimer == "token_af" {
		p.kind = timeline.KindFreeCall
	}
	return panels(sw[0], p, func(_ int, c bench.WorkloadConfig, tr bench.TrialResult) string {
		return fmt.Sprintf("%s — %s, %d threads: ops/s %s, peak %.1f MiB, epochs %d",
			fig[c.Reclaimer], c.Reclaimer, c.Threads, fmtOps(tr.OpsPerSec), tr.PeakMiB, tr.SMR.Epochs)
	})
}

func fig17Report(sw [][]results.Summary) string {
	return panels(sw[0], panel{kind: timeline.KindFreeCall, rows: 20},
		func(_ int, c bench.WorkloadConfig, tr bench.TrialResult) string {
			return fmt.Sprintf("%s — %d visible free calls%s:", batchOrAF(c, "Fig. 17 (upper)", "Fig. 17 (lower)"),
				freeCalls(tr), fmtDropped(tr))
		})
}

// appGReport numbers its panels Fig. 18 onward in expansion order: allocator
// outer, thread count inner, as the appendix lays them out.
func appGReport(sw [][]results.Summary) string {
	return panels(sw[0], panel{kind: timeline.KindBatchFree, rows: 12, curve: 50},
		func(i int, c bench.WorkloadConfig, tr bench.TrialResult) string {
			return fmt.Sprintf("Fig. %d — %s, DEBRA, %d threads (ops/s %s, peak %.1f MiB):",
				18+i, c.Allocator, c.Threads, fmtOps(tr.OpsPerSec), tr.PeakMiB)
		})
}

// latReport renders each reclaimer's healthy and stalled arms, the stalled
// arm's p999 blowup over the healthy one, and the stalled-arm histograms of
// one unbounded and one bounded scheme, so the tail separation is visible as a
// shape and not just a quantile.
func latReport(sw [][]results.Summary) string {
	healthy := where(sw[0], func(c bench.WorkloadConfig) bool { return len(c.Faults) == 0 })
	stalled := where(sw[0], func(c bench.WorkloadConfig) bool { return len(c.Faults) > 0 })
	tb := newTable("reclaimer", "arm", "ops/s", "p50", "p99", "p999", "max", "p999 blowup")
	row := func(rec, arm string, tr bench.TrialResult, blowup string) {
		tb.addf("%s\t%s\t%s\t%v\t%v\t%v\t%v\t%s", rec, arm, fmtOps(tr.OpsPerSec), time.Duration(tr.LatP50Ns),
			time.Duration(tr.LatP99Ns), time.Duration(tr.LatP999Ns), time.Duration(tr.LatMaxNs), blowup)
	}
	for _, rec := range distinct(sw[0], reclaimerOf) {
		h, s := trialOf(find(healthy, 0, rec)), trialOf(find(stalled, 0, rec))
		row(rec, "healthy", h, "")
		row(rec, "stalled", s, ratio(float64(s.LatP999Ns), float64(h.LatP999Ns)))
	}
	var sb strings.Builder
	cfg := stalled[0].Config
	fmt.Fprintf(&sb, "Open-system latency — %d workers, %s arrivals/worker, stall plan %s:\n%s\n",
		cfg.Threads, cfg.Arrival, bench.FormatFaults(cfg.Faults), tb)
	for _, rec := range []string{"debra", "ibr"} {
		fmt.Fprintf(&sb, "%s stalled:\n%s\n", rec, timeline.RenderLatencyASCII(trialOf(find(stalled, 0, rec)).Latency, 60))
	}
	return sb.String()
}

// table accumulates rows and renders them with aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...any) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "\t")...)
}

func (t *table) String() string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.header, "\t"))
	fmt.Fprintln(w, strings.Repeat("-", 8))
	for _, r := range t.rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return sb.String()
}

// fmtOps renders an ops/sec figure the way the paper does (e.g. "43.4M").
func fmtOps(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// fmtCount renders an object count ("114M", "32K").
func fmtCount(v int64) string { return fmtOps(float64(v)) }

// ratio formats a speedup factor.
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

// fmtDropped renders a recorded trial's truncation notice for panel headings:
// empty when the timeline is complete, ", dropped N" when recordable events
// were lost to full recorder buffers.
func fmtDropped(tr bench.TrialResult) string {
	if tr.Dropped == 0 {
		return ""
	}
	return fmt.Sprintf(", dropped %d", tr.Dropped)
}
