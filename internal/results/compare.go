package results

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
)

// Class is the regression-diff verdict for one configuration group.
type Class string

const (
	// ClassImproved / ClassRegressed: the relative mean-throughput change
	// exceeds the tolerance in the respective direction.
	ClassImproved  Class = "improved"
	ClassRegressed Class = "regressed"
	// ClassUnchanged: the change is within tolerance (inclusive).
	ClassUnchanged Class = "unchanged"
	// ClassOnlyOld / ClassOnlyNew: the group exists in only one store.
	ClassOnlyOld Class = "only_old"
	ClassOnlyNew Class = "only_new"
)

// Tolerances bounds what Compare counts as noise.
type Tolerances struct {
	// RelOps is the relative mean ops/sec change (fraction, e.g. 0.05 for
	// ±5%) within which a group is classified unchanged; the boundary is
	// inclusive. Zero or negative means the 0.05 default.
	RelOps float64
	// LimboFactor gates the robustness metric: a group whose mean peak
	// limbo grew by more than this factor is regressed even when its
	// throughput is unchanged (peak limbo is a garbage-bound property, so
	// only growth regresses — shrinking limbo never flags). The gate is
	// multiplicative because peak limbo spans orders of magnitude across
	// schemes; throughput-style relative tolerances would be meaningless.
	// Zero or negative means the 4.0 default.
	LimboFactor float64
	// LatencyFactor gates the open-system tail: a group whose p999 queueing
	// latency grew by more than this factor is regressed even at unchanged
	// throughput — an open system can hold its ops/sec (arrivals are
	// admitted eventually) while its tail explodes, which is precisely the
	// stall signature the latency gate exists to catch. Multiplicative like
	// the limbo gate, and growth-only: a shrinking tail never flags. Zero
	// or negative means the 4.0 default.
	LatencyFactor float64
}

const (
	defaultRelOps        = 0.05
	defaultLimboFactor   = 4.0
	defaultLatencyFactor = 4.0
)

func (t Tolerances) relOps() float64 {
	if t.RelOps <= 0 {
		return defaultRelOps
	}
	return t.RelOps
}

func (t Tolerances) limboFactor() float64 {
	if t.LimboFactor <= 0 {
		return defaultLimboFactor
	}
	return t.LimboFactor
}

func (t Tolerances) latencyFactor() float64 {
	if t.LatencyFactor <= 0 {
		return defaultLatencyFactor
	}
	return t.LatencyFactor
}

// Delta is one configuration group's old-vs-new comparison.
type Delta struct {
	Group string `json:"group"`
	Label string `json:"label"`
	// Old/New are the per-store summaries; valid only when the matching
	// HasOld/HasNew flag is set.
	Old    Summary `json:"old,omitempty"`
	New    Summary `json:"new,omitempty"`
	HasOld bool    `json:"has_old"`
	HasNew bool    `json:"has_new"`
	// Rel is (new-old)/old mean ops. When the old mean is zero Rel is 0 by
	// convention (the class still reflects the change: a zero-to-nonzero
	// group is improved) so reports stay JSON-encodable.
	Rel   float64 `json:"rel"`
	Class Class   `json:"class"`
	// LimboRatio is new/old mean peak limbo (0 when the old mean is zero).
	// A ratio above Tolerances.LimboFactor marks the group regressed on the
	// garbage bound regardless of throughput; LimboRegressed records that
	// the limbo gate (not ops) drove the classification.
	LimboRatio     float64 `json:"limbo_ratio,omitempty"`
	LimboRegressed bool    `json:"limbo_regressed,omitempty"`
	// LatRatio is new/old p999 queueing latency (0 when either side lacks
	// latency data, e.g. closed-loop groups). A ratio above
	// Tolerances.LatencyFactor marks the group regressed on the tail;
	// LatRegressed records that the latency gate drove the classification.
	LatRatio     float64 `json:"lat_ratio,omitempty"`
	LatRegressed bool    `json:"lat_regressed,omitempty"`
}

// Report is the full cross-store diff.
type Report struct {
	Tolerance float64 `json:"tolerance"`
	// LimboTolerance is the peak-limbo growth factor the limbo gate used.
	LimboTolerance float64 `json:"limbo_tolerance"`
	// LatencyTolerance is the p999 growth factor the latency gate used.
	LatencyTolerance float64 `json:"latency_tolerance"`
	Deltas           []Delta `json:"deltas"`
	Improved         int     `json:"improved"`
	Regressed        int     `json:"regressed"`
	Unchanged        int     `json:"unchanged"`
	OnlyOld          int     `json:"only_old"`
	OnlyNew          int     `json:"only_new"`
	// Quarantined is the number of quarantined trials in the new store —
	// configurations that failed permanently rather than measuring badly.
	Quarantined int `json:"quarantined,omitempty"`
}

// classify applies the tolerance to a both-sides delta. The boundary is
// inclusive: |rel| == tol is unchanged.
func classify(oldMean, newMean, tol float64) (rel float64, class Class) {
	if oldMean == 0 {
		if newMean == 0 {
			return 0, ClassUnchanged
		}
		return 0, ClassImproved
	}
	rel = (newMean - oldMean) / oldMean
	switch {
	case rel > tol:
		return rel, ClassImproved
	case rel < -tol:
		return rel, ClassRegressed
	default:
		return rel, ClassUnchanged
	}
}

// Compare diffs two stores group-by-group and classifies every
// configuration as improved, regressed, unchanged, or present on one side
// only. Deltas are sorted by label for deterministic reports.
func Compare(oldStore, newStore *Store, tol Tolerances) Report {
	rep := Report{Tolerance: tol.relOps(), LimboTolerance: tol.limboFactor(), LatencyTolerance: tol.latencyFactor()}
	oldSums := map[string]Summary{}
	for _, s := range oldStore.Summaries() {
		oldSums[s.Group] = s
	}
	newSums := map[string]Summary{}
	for _, s := range newStore.Summaries() {
		rep.Quarantined += s.Quarantined
		newSums[s.Group] = s
	}
	for group, o := range oldSums {
		d := Delta{Group: group, Label: o.Label, Old: o, HasOld: true}
		if n, ok := newSums[group]; ok {
			d.New, d.HasNew = n, true
			d.Rel, d.Class = classify(o.MeanOps, n.MeanOps, rep.Tolerance)
			// The limbo gate: a garbage-bound blowup is a regression even at
			// identical throughput — it is exactly the failure mode a stalled
			// thread exposes.
			if o.MeanPeakLimbo > 0 {
				d.LimboRatio = n.MeanPeakLimbo / o.MeanPeakLimbo
				if d.LimboRatio > rep.LimboTolerance && d.Class != ClassRegressed {
					d.Class = ClassRegressed
					d.LimboRegressed = true
				}
			}
			// The latency gate: an open-system tail blowup regresses the
			// group even when its throughput held (see Tolerances).
			if o.LatP999Ns > 0 && n.LatP999Ns > 0 {
				d.LatRatio = float64(n.LatP999Ns) / float64(o.LatP999Ns)
				if d.LatRatio > rep.LatencyTolerance && d.Class != ClassRegressed {
					d.Class = ClassRegressed
					d.LatRegressed = true
				}
			}
		} else {
			d.Class = ClassOnlyOld
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	for group, n := range newSums {
		if _, ok := oldSums[group]; ok {
			continue
		}
		rep.Deltas = append(rep.Deltas, Delta{
			Group: group, Label: n.Label, New: n, HasNew: true, Class: ClassOnlyNew,
		})
	}
	sort.Slice(rep.Deltas, func(i, j int) bool {
		if rep.Deltas[i].Label != rep.Deltas[j].Label {
			return rep.Deltas[i].Label < rep.Deltas[j].Label
		}
		return rep.Deltas[i].Group < rep.Deltas[j].Group
	})
	for _, d := range rep.Deltas {
		switch d.Class {
		case ClassImproved:
			rep.Improved++
		case ClassRegressed:
			rep.Regressed++
		case ClassUnchanged:
			rep.Unchanged++
		case ClassOnlyOld:
			rep.OnlyOld++
		case ClassOnlyNew:
			rep.OnlyNew++
		}
	}
	return rep
}

// String renders the report as an aligned text table plus a totals line.
func (r Report) String() string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "config\told ops/s\tnew ops/s\tdelta\tlimbo×\tlat×\tclass")
	for _, d := range r.Deltas {
		oldOps, newOps, delta, limbo, lat := "-", "-", "-", "-", "-"
		if d.HasOld {
			oldOps = fmt.Sprintf("%.0f", d.Old.MeanOps)
		}
		if d.HasNew {
			newOps = fmt.Sprintf("%.0f", d.New.MeanOps)
		}
		if d.HasOld && d.HasNew {
			delta = fmt.Sprintf("%+.1f%%", 100*d.Rel)
			if d.LimboRatio > 0 {
				limbo = fmt.Sprintf("%.2f", d.LimboRatio)
			}
			if d.LatRatio > 0 {
				lat = fmt.Sprintf("%.2f", d.LatRatio)
			}
		}
		class := string(d.Class)
		if d.LimboRegressed {
			class += " (limbo)"
		}
		if d.LatRegressed {
			class += " (latency)"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", d.Label, oldOps, newOps, delta, limbo, lat, class)
	}
	w.Flush()
	fmt.Fprintf(&sb,
		"tolerance ±%.1f%% ops, %.1f× limbo, %.1f× latency: %d improved, %d regressed, %d unchanged, %d only-old, %d only-new, %d quarantined\n",
		100*r.Tolerance, r.LimboTolerance, r.LatencyTolerance, r.Improved, r.Regressed, r.Unchanged, r.OnlyOld, r.OnlyNew, r.Quarantined)
	return sb.String()
}
