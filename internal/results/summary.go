package results

import (
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/arrival"
	"repro/internal/bench"
)

// Summary is one configuration's trials reduced to the statistics every
// report reads: a sweep's table, CSV and JSON, the paper's figures, and the
// regression diff. Summarize is the only function that builds one. With a
// single trial the spread statistics are zero; with none (every trial
// quarantined) the configuration's identity stays and every statistic is
// zero. The JSON form is the one -compare -format json prints.
type Summary struct {
	// Group is the GroupKey of a store's group (Store.Summaries); empty for
	// a sweep's summaries, which are identified by their configuration.
	Group string `json:"group"`
	// Label is the human-readable configuration label.
	Label string `json:"label"`
	// Config is the configuration the trials ran; a store's summary carries a
	// representative record's with the seed zeroed.
	Config bench.WorkloadConfig `json:"config"`
	// Seeds lists the trial seeds, so a summary is traceable back to the
	// exact RNG streams behind it: in trial order from Summarize, ascending
	// from Store.Summaries.
	Seeds []uint64 `json:"seeds"`
	// N is the number of trials.
	N int `json:"n"`
	// MeanOps/StdDevOps are the sample mean and (n-1) sample standard
	// deviation of ops/sec; CI95Ops is the 95% confidence half-width under
	// the normal approximation (1.96·sd/√n).
	MeanOps   float64 `json:"mean_ops"`
	StdDevOps float64 `json:"stddev_ops"`
	CI95Ops   float64 `json:"ci95_ops"`
	MinOps    float64 `json:"min_ops"`
	MaxOps    float64 `json:"max_ops"`
	// MeanPeakMiB is the mean allocator high-water mark.
	MeanPeakMiB float64 `json:"mean_peak_mib"`
	// Mean modeled-cost percentages (the paper's perf shares).
	MeanPctFree  float64 `json:"mean_pct_free"`
	MeanPctFlush float64 `json:"mean_pct_flush"`
	MeanPctLock  float64 `json:"mean_pct_lock"`
	// MeanPeakLimbo is the mean unreclaimed-object high-water mark — the
	// robustness metric: under a stalled-thread fault it stays bounded for
	// hazard-family schemes and blows up for epoch-based ones.
	MeanPeakLimbo float64 `json:"mean_peak_limbo"`
	// MeanPctStall is the mean share of thread-time in blocking grace-period
	// waits.
	MeanPctStall float64 `json:"mean_pct_stall"`
	// LatP50Ns/LatP99Ns/LatP999Ns/LatMaxNs are open-system queueing-latency
	// quantiles over the trials, computed on the *merged* per-trial
	// histograms (quantiles of the pooled observations, not averages of
	// per-trial quantiles — averaging would hide a single bad trial's tail).
	// All zero for closed-loop groups.
	LatP50Ns  int64 `json:"lat_p50_ns,omitempty"`
	LatP99Ns  int64 `json:"lat_p99_ns,omitempty"`
	LatP999Ns int64 `json:"lat_p999_ns,omitempty"`
	LatMaxNs  int64 `json:"lat_max_ns,omitempty"`
	// Quarantined counts the configuration's quarantined (permanently
	// failed) trials; they are excluded from every statistic above and from
	// N.
	Quarantined int `json:"quarantined,omitempty"`

	// Phases is the phase schedule the trials ran, in the ParsePhases
	// syntax: the first a trial recorded (TrialResult.Phases stays accurate
	// for records written by a build whose scenario defaults differed), else
	// the one the configuration resolves to; empty for the implicit single
	// phase.
	Phases string `json:"-"`
	// Arrival is the arrival process in canonical syntax ("none" for the
	// closed loop): the first a trial recorded, else the configuration's.
	Arrival string `json:"-"`
	// Host is the distinct hosts the trials ran on, ';'-joined in
	// first-appearance order: a store merged from several machines' sweeps
	// names every one. Empty for trials that predate provenance stamping.
	Host string `json:"-"`
	// MeanElapsedMs is the mean measured wall time of a trial in
	// milliseconds, the number the grid's cost model schedules by.
	MeanElapsedMs float64 `json:"-"`
	// Dropped sums the timeline events lost to full recorder buffers, so a
	// clipped recording cannot pass for a complete one.
	Dropped int64 `json:"-"`
	// Trials are the trials summarized, in the order given; the figures'
	// timeline panels read their Recorder.
	Trials []bench.TrialResult `json:"-"`
}

// Summarize reduces one configuration's successful trials, in the order
// given, to its Summary; quarantined is how many of its trials failed
// permanently, counted but feeding no statistic (a wedged trial's partial
// numbers would poison the means). Sums are taken in trial order and then
// divided, so a summary is a pure function of its inputs.
func Summarize(cfg bench.WorkloadConfig, trials []bench.TrialResult, quarantined int) Summary {
	s := Summary{
		Label:       Label(cfg),
		Config:      cfg,
		N:           len(trials),
		Quarantined: quarantined,
		Trials:      trials,
	}
	var (
		lat     arrival.Hist
		elapsed float64
		hosts   []string
	)
	for i, tr := range trials {
		ops := tr.OpsPerSec
		lat.Merge(tr.Latency)
		s.Seeds = append(s.Seeds, tr.Seed)
		s.MeanOps += ops
		s.MeanPeakMiB += tr.PeakMiB
		s.MeanPctFree += tr.PctFree
		s.MeanPctFlush += tr.PctFlush
		s.MeanPctLock += tr.PctLock
		s.MeanPeakLimbo += float64(tr.PeakLimbo)
		s.MeanPctStall += tr.PctStall
		elapsed += float64(tr.ElapsedNanos)
		s.Dropped += tr.Dropped
		if s.Phases == "" {
			s.Phases = tr.Phases
		}
		if s.Arrival == "" {
			s.Arrival = tr.Arrival
		}
		if tr.Host != "" && !slices.Contains(hosts, tr.Host) {
			hosts = append(hosts, tr.Host)
		}
		if i == 0 || ops < s.MinOps {
			s.MinOps = ops
		}
		if i == 0 || ops > s.MaxOps {
			s.MaxOps = ops
		}
	}
	s.Host = strings.Join(hosts, ";")
	if s.Phases == "" {
		ph, _ := bench.EffectivePhases(cfg)
		s.Phases = bench.FormatPhases(ph)
	}
	if s.Arrival == "" {
		s.Arrival = cfg.Arrival
		if sp, err := arrival.Parse(cfg.Arrival); err == nil {
			s.Arrival = arrival.Format(sp)
		}
	}
	if len(trials) == 0 {
		return s
	}
	n := float64(len(trials))
	s.MeanOps /= n
	s.MeanPeakMiB /= n
	s.MeanPctFree /= n
	s.MeanPctFlush /= n
	s.MeanPctLock /= n
	s.MeanPeakLimbo /= n
	s.MeanPctStall /= n
	s.MeanElapsedMs = elapsed / n / 1e6
	if lat.Count() > 0 {
		s.LatP50Ns = lat.Quantile(0.50)
		s.LatP99Ns = lat.Quantile(0.99)
		s.LatP999Ns = lat.Quantile(0.999)
		s.LatMaxNs = lat.Max()
	}
	if len(trials) > 1 {
		var ss float64
		for _, tr := range trials {
			d := tr.OpsPerSec - s.MeanOps
			ss += d * d
		}
		s.StdDevOps = math.Sqrt(ss / (n - 1))
		s.CI95Ops = 1.96 * s.StdDevOps / math.Sqrt(n)
	}
	return s
}

// Summaries reduces the store to one Summary per configuration group, its
// records' trials in append order and its seeds ascending, sorted by label
// then group key for deterministic output.
func (s *Store) Summaries() []Summary {
	groups := map[string][]Record{}
	for _, rec := range s.Records() {
		groups[rec.Group] = append(groups[rec.Group], rec)
	}
	out := make([]Summary, 0, len(groups))
	for group, recs := range groups {
		var trials []bench.TrialResult
		quarantined := 0
		for _, r := range recs {
			if r.Quarantined {
				quarantined++
			} else {
				trials = append(trials, r.Trial)
			}
		}
		cfg := recs[0].Config
		cfg.Seed = 0
		sum := Summarize(cfg, trials, quarantined)
		sum.Group = group
		slices.Sort(sum.Seeds)
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Group < out[j].Group
	})
	return out
}
