// Package results is the content-addressed results store for the benchmark
// harness: every executed trial is persisted as a Record keyed by a stable
// hash of its full configuration, so sweeps are resumable (a re-run skips
// every key already in the store), results survive across PRs as JSONL
// artifacts, and two stores can be diffed into a regression report
// (Compare) instead of eyeballing stdout tables.
//
// Two keys address each record. The TrialKey (KeyOf) hashes the normalized
// WorkloadConfig including the seed — it identifies one exact trial, and is
// the cache key for skip-on-rerun. The GroupKey (GroupOf) hashes the same
// configuration with the seed zeroed — it identifies the configuration
// across its repeated trials, and is the aggregation unit for Summary
// statistics and cross-store comparison.
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/arrival"
	"repro/internal/bench"
	"repro/internal/simalloc"
	"repro/internal/smr"
)

// SchemaVersion identifies the record layout and the key-normalization
// rules. It is hashed into every key, so bumping it orphans (but does not
// corrupt) existing stores: old records simply stop matching new keys.
//
// v2: WorkloadConfig gained FixedOps and LegacyDispatch, and YieldEvery's
// default changed from the per-op legacy policy (1) to the batched auto
// policy (0) — all three alter what a stored trial measured, so every key
// moves.
//
// v3: the thread-lifecycle core. WorkloadConfig gained Phases (the phase
// engine's schedule) and the BurstOps rename of PhaseOps, TrialResult
// gained Phases, and smr.Stats gained the Joins/Leaves/Adopted lifecycle
// counters — the record layout and the hashed config both changed.
//
// v4: fault injection and robustness. WorkloadConfig gained Faults (hashed
// — a faulted trial is a different experiment) and Deadline (normalized
// away — a watchdog never changes a healthy trial's measurements),
// TrialResult gained PeakLimbo/PctStall/Faults/Error, smr.Stats gained
// PeakLimbo/StallNanos/StallWaits/ClockReads, and Record gained the
// quarantine fields.
//
// v5: open-system workloads. WorkloadConfig gained Arrival (hashed as-is —
// an open-system trial measures queueing latency, a different experiment
// from the closed loop; the canonical "" spelling of the closed loop keeps
// legacy configs' encodings unchanged apart from the version), and
// TrialResult gained the Arrival label, the latency quantiles
// (LatP50Ns/LatP99Ns/LatP999Ns/LatMaxNs), and the Latency histogram.
//
// v6: one way to run a trial. WorkloadConfig lost LegacyDispatch (the trees
// protect through guards only), YieldEvery (the auto stride is the yield
// policy) and the PhaseOps alias of BurstOps. All three marshalled without
// omitempty, so every config's encoding, and with it every key, moves.
// Migration: a v5 store opens and loads, but none of its records matches a
// v6 key, so a sweep over it re-executes (epochgrid says so in one stderr
// line). Records are deliberately not re-keyed on load: the decoder drops
// the removed fields, so a v5 record written with
// LegacyDispatch true or an explicit YieldEvery would come back looking like
// a default trial and be shared with one. A fleet's coordinator and workers
// upgrade together, since a worker returns results under the keys it
// computes.
const SchemaVersion = 6

// Normalize fills the configuration defaults that the harness would apply
// at run time (RunTrial, NewStack, smr.Config.fillDefaults), so that a
// zero-valued knob and its explicit default hash to the same key. It reads
// the tables the run reads (smr.DefaultConfig, simalloc.DefaultConfig,
// bench.DefaultRecorderCap), so a changed default cannot mis-share keys. The
// normalization is deliberately conservative: knobs whose defaults depend
// on scenario-internal logic keep their zero values, which can only
// under-share the cache, never mis-share it.
func Normalize(cfg bench.WorkloadConfig) bench.WorkloadConfig {
	if cfg.Scenario == "" {
		cfg.Scenario = "paper"
	}
	if cfg.Cost.ThreadsPerSocket == 0 {
		cfg.Cost = simalloc.Intel192()
	}
	d := smr.DefaultConfig(nil, cfg.Threads)
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = d.BatchSize
	}
	if cfg.DrainRate <= 0 {
		cfg.DrainRate = d.DrainRate
	}
	if cfg.TokenCheckK <= 0 {
		cfg.TokenCheckK = d.TokenCheckK
	}
	if cfg.EraFreq <= 0 {
		cfg.EraFreq = d.EraFreq
	}
	// Phases hashes as-is: materializing a scenario's default schedule here
	// would couple every key to scenario internals (the conservative policy
	// above), so an explicit schedule and its scenario-default twin
	// under-share, never mis-share. An empty schedule and a nil one are the
	// same (unphased) trial, but marshal as [] vs null — fold to nil so they
	// share a key.
	if len(cfg.Phases) == 0 {
		cfg.Phases = nil
	}
	// Same folding for an empty fault plan. A non-empty plan hashes as-is:
	// injected faults change what the trial measures. The watchdog deadline
	// does not — it only bounds how long a wedged trial may hang — so it is
	// zeroed: a sweep run with or without -deadline shares its cache.
	if len(cfg.Faults) == 0 {
		cfg.Faults = nil
	}
	cfg.Deadline = 0
	// Arrival folds to its canonical spelling ("" for the closed loop, the
	// arrival.Format form otherwise) so "none", defaulted parameters, and
	// their explicit twins share a key. An unparseable spec keeps its text:
	// it can never have produced a stored trial, so it cannot mis-share.
	if cfg.Arrival != "" {
		if spec, err := arrival.Parse(cfg.Arrival); err == nil {
			if spec.IsZero() {
				cfg.Arrival = ""
			} else {
				cfg.Arrival = arrival.Format(spec)
			}
		}
	}
	// FixedOps hashes as-is: a fixed-op trial and a wall-clock trial must
	// never share a key.
	if cfg.Threads > 0 {
		acfg := simalloc.DefaultConfig(cfg.Threads)
		if cfg.TCacheCap <= 0 {
			cfg.TCacheCap = acfg.TCacheCap
		}
		if cfg.FlushFraction <= 0 {
			cfg.FlushFraction = acfg.FlushFraction
		}
		if cfg.ArenasPerThread <= 0 {
			cfg.ArenasPerThread = acfg.ArenasPerThread
		}
	}
	if !cfg.Record {
		cfg.RecorderCap = 0
	} else if cfg.RecorderCap <= 0 {
		cfg.RecorderCap = bench.DefaultRecorderCap
	}
	return cfg
}

// hashConfig produces the hex digest of the canonical JSON encoding of a
// normalized configuration under the current schema version. Struct fields
// marshal in declaration order, so the encoding — and therefore the key —
// is stable as long as WorkloadConfig's field order is.
func hashConfig(cfg bench.WorkloadConfig) string {
	configHashes.Add(1)
	b, err := json.Marshal(struct {
		Schema int
		Config bench.WorkloadConfig
	}{SchemaVersion, cfg})
	if err != nil {
		// WorkloadConfig is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("results: hashing config: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// configHashes counts hashConfig calls.
var configHashes atomic.Int64

// ConfigHashes reports how many configurations this process has hashed so
// far (KeyOf and GroupOf each count one). A hash is a JSON encoding plus a
// SHA-256, roughly what a dispatcher otherwise spends on a whole trial's
// bookkeeping, so dispatch paths pin "no hashing per grant" as a zero delta
// of this counter.
func ConfigHashes() int64 { return configHashes.Load() }

// KeyOf returns the TrialKey: the content address of one exact trial
// (normalized configuration including the seed). Trials are deterministic
// given config + seed, so a store hit under this key substitutes for
// re-execution.
func KeyOf(cfg bench.WorkloadConfig) string {
	return hashConfig(Normalize(cfg))
}

// GroupOf returns the GroupKey: the content address of the configuration
// with the seed zeroed, shared by all trials (seeds) of that configuration.
func GroupOf(cfg bench.WorkloadConfig) string {
	n := Normalize(cfg)
	n.Seed = 0
	return hashConfig(n)
}

// Label renders a configuration as a compact human-readable group label
// for reports: scenario/ds/allocator/reclaimer/threads/batch, with an
// explicit phase schedule appended when the config carries one.
func Label(cfg bench.WorkloadConfig) string {
	n := Normalize(cfg)
	label := fmt.Sprintf("%s/%s/%s/%s/t%d/b%d",
		n.Scenario, n.DataStructure, n.Allocator, n.Reclaimer, n.Threads, n.BatchSize)
	if len(n.Phases) > 0 {
		label += "/" + bench.FormatPhases(n.Phases)
	}
	if len(n.Faults) > 0 {
		label += "/" + bench.FormatFaults(n.Faults)
	}
	if n.Arrival != "" {
		label += "/" + n.Arrival
	}
	return label
}
