// Package fleet is the lease layer over the content-addressed results store:
// a coordinator that owns one sweep (expanded trial configs + the store) and
// hands its trials out under time-bounded leases over HTTP, and a worker that
// pulls leases, runs trials through the grid runner's per-trial path, and
// reports completed records back. Both run in one process: the repo benchmark
// drives them over loopback to price this dispatch layer against the local
// runner's. The robustness model is the one the harness applies to
// reclaimers (bench/faults):
//
//   - A worker that dies mid-trial simply stops renewing its leases; they
//     expire and the coordinator re-issues their trials. So does a chunk
//     whose completion could not be delivered: it is dropped, not kept.
//   - A lease is sized by its work: the coordinator fills it with cheap
//     trials up to a fixed quantum of measured cost, the worker runs them in
//     grant order and reports them in one completion that carries its next
//     lease request, so a trial costs a share of one round trip however
//     small it is. A trial that fills the quantum is leased alone.
//   - Duplicate completions from lease races resolve by content addressing:
//     the trial key IS the result's identity, so the store's merge-dedupe
//     (AppendAllIfAbsent) keeps exactly one record per key no matter how
//     many workers report it.
//   - Worker↔coordinator RPCs carry context deadlines and retry with
//     seeded-jitter exponential backoff; an injectable fault transport
//     (drop/delay/duplicate/sever, seeded like bench/faults) makes the RPC
//     layer itself chaos-testable in-process.
//   - The coordinator persists completions through the same crash-safe
//     O_APPEND log as every other sweep, so a coordinator restarted over
//     the same store resumes, skipping everything already done.
//
// The serial path is untouched: fleet is a layer over grid.ExpandTasks and
// results.Store, not a change to either's semantics, and a fleet sweep
// converges to the exact record set a single-process sweep of the same spec
// produces.
package fleet

import (
	"repro/internal/bench"
	"repro/internal/results"
)

// Lease states returned by the coordinator.
const (
	// StatusLease: a trial is attached; run it and Complete before the
	// lease expires (or Renew along the way).
	StatusLease = "lease"
	// StatusWait: every remaining trial is currently leased to someone
	// else; poll /v1/lease again after RetryMs.
	StatusWait = "wait"
	// StatusDone: the sweep is complete; the worker should exit.
	StatusDone = "done"
)

// maxChunkTrials is the protocol's cap on the trials of one lease and the
// records of one completion. Fixed, not negotiated: 32 records of ≈ 2.7 KB
// keep a completion under 100 KB — a body a coordinator decodes in about a
// millisecond — and 32 trials under one RPC already put the round trip at a
// few percent of the cheapest trial's cost, so a larger chunk would buy
// nothing and lose more to a worker's crash.
const maxChunkTrials = 32

// LeaseRequest asks the coordinator for work.
type LeaseRequest struct {
	// Worker is the requesting worker's self-chosen name, for logs and the
	// fair share of a chunk.
	Worker string `json:"worker"`
	// Capacity is the worker's advertised thread capacity (typically its
	// GOMAXPROCS). The coordinator grants the costliest pending trial whose
	// Threads fit the capacity, so big trials land on big workers while
	// small workers stay busy on small ones. Advisory, not a hard wall:
	// <= 0 means unlimited, and when nothing fits the coordinator grants
	// the cheapest pending trial anyway — an undersized worker runs a trial
	// slowly rather than the sweep stalling forever.
	Capacity int `json:"capacity,omitempty"`
	// MaxTrials is how many trials the requester can hold under one lease
	// and report in one completion. A request that leaves it out gets
	// exactly one trial and an empty Extra, which is all a client that
	// completes one trial per lease can use; fleet.Worker always states the
	// protocol cap. It is a capability, not a size: how many trials a lease
	// carries is the coordinator's decision (LeaseResponse.Extra).
	MaxTrials int `json:"max_trials,omitempty"`
}

// Grant is one trial of a lease beyond the first. It carries the same
// fields as the primary grant and is a lease of its own — renewed, expired
// and re-issued by its own id.
type Grant struct {
	LeaseID         string               `json:"lease_id"`
	Key             string               `json:"key"`
	Config          bench.WorkloadConfig `json:"config"`
	ExpiresUnixNano int64                `json:"expires_unix_ns,omitempty"`
}

// LeaseResponse carries a granted lease (StatusLease) or a polling
// instruction (StatusWait/StatusDone).
type LeaseResponse struct {
	Status string `json:"status"`
	// LeaseID identifies the grant for Renew/Complete. Unique per grant —
	// a re-issued trial gets a fresh lease id.
	LeaseID string `json:"lease_id,omitempty"`
	// Key is the trial's content address (results.KeyOf of Config),
	// precomputed coordinator-side so both ends agree on identity.
	Key string `json:"key,omitempty"`
	// Config is the effective trial configuration, to run verbatim.
	Config bench.WorkloadConfig `json:"config,omitempty"`
	// ExpiresUnixNano is the lease deadline on the coordinator's clock.
	// Advisory for the worker (clocks may skew): renew by TTLMs, and treat a
	// missed renewal as survivable — a late completion still lands via key
	// dedupe.
	ExpiresUnixNano int64 `json:"expires_unix_ns,omitempty"`
	// TTLMs is the coordinator's lease TTL: how long a grant lives from its
	// grant or its last renewal. A worker renews everything it holds every
	// third of it, whatever the two clocks say about each other.
	TTLMs int `json:"ttl_ms,omitempty"`
	// RetryMs is the suggested poll delay for StatusWait: the time until the
	// soonest outstanding lease is expected to finish by its configuration's
	// measured mean (or, once overdue, the time it has been overdue, so polls
	// on a stuck lease back off), within [1 ms, min(LeaseTTL/8, 250 ms)]; the
	// upper bound itself while no outstanding lease has a measured mean.
	RetryMs int `json:"retry_ms,omitempty"`
	// Extra carries the rest of the lease: the cheapest fitting pending
	// trials of measured configurations, to be run in this order after the
	// primary grant and reported with it, for as long as (i) the summed
	// measured cost of the lease stays within the coordinator's quantum
	// (50 ms), (ii) the lease stays within the fair share
	// ceil(pending / (2 × workers seen)), so chunks shrink as the sweep runs
	// down, and (iii) within min(MaxTrials, 32). Empty when the primary
	// grant's configuration is unmeasured (its first seed runs alone and
	// feeds the model), fills the quantum by itself, or was granted although
	// it does not fit the capacity. The primary stays in the flat fields
	// above, so a client that ignores Extra — and so asks for none — behaves
	// as before.
	Extra []Grant `json:"extra,omitempty"`
}

// RenewRequest extends held leases: LeaseID and every id in More.
type RenewRequest struct {
	LeaseID string   `json:"lease_id"`
	More    []string `json:"more,omitempty"`
	Worker  string   `json:"worker"`
}

// RenewResponse reports whether every named lease still existed. OK=false
// means one had expired and its trial may have been re-issued; the worker
// should finish and Complete anyway (dedupe keeps the result single). The
// leases that did exist are extended either way.
type RenewResponse struct {
	OK              bool  `json:"ok"`
	ExpiresUnixNano int64 `json:"expires_unix_ns,omitempty"`
}

// Completion is one finished trial of a completion beyond the first.
type Completion struct {
	LeaseID string         `json:"lease_id,omitempty"`
	Key     string         `json:"key"`
	Record  results.Record `json:"record"`
}

// CompleteRequest delivers the finished trials of one lease (regular or
// quarantine records): the first in the flat fields, the rest in More. The
// coordinator takes them in that order, each exactly as if it had arrived
// alone, and stores them with one append.
type CompleteRequest struct {
	LeaseID string         `json:"lease_id,omitempty"`
	Worker  string         `json:"worker"`
	Key     string         `json:"key"`
	Record  results.Record `json:"record"`
	// More carries the other records of the chunk, at most 31 from a
	// fleet.Worker.
	More []Completion `json:"more,omitempty"`
	// Next, when set, is the worker's next lease request, served by the same
	// policy under the same lock hold as the completion and answered in
	// CompleteResponse.Next — one round trip per chunk instead of two.
	Next *LeaseRequest `json:"next,omitempty"`
}

// CompleteAck is the coordinator's answer for one record of a completion.
type CompleteAck struct {
	// Accepted is false only for a key the coordinator has never heard of
	// (e.g. the worker is talking to a coordinator restarted with a
	// different sweep).
	Accepted bool `json:"accepted"`
	// Duplicate means the trial was already done (lease race, retransmit);
	// the record was discarded by key dedupe. Not an error.
	Duplicate bool `json:"duplicate,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Accepted and Duplicate answer the flat record, as a CompleteAck does;
	// More answers the records of CompleteRequest.More, index for index.
	Accepted  bool          `json:"accepted"`
	Duplicate bool          `json:"duplicate,omitempty"`
	More      []CompleteAck `json:"more,omitempty"`
	// Done hints that the sweep is now complete, so the worker can exit
	// without another lease round-trip.
	Done bool `json:"done,omitempty"`
	// Next answers CompleteRequest.Next; nil when none was asked or a record
	// was rejected (the worker then asks /v1/lease). A grant lost with this
	// response is recovered by lease expiry, like a lost /v1/lease response.
	Next *LeaseResponse `json:"next,omitempty"`
}

// StatusResponse is the coordinator's observable state (Coordinator.Status).
type StatusResponse struct {
	// Total counts expanded trials; Executed+Cached+Quarantined partition
	// the completed ones. Cached trials were satisfied from the store at
	// startup (resume); Quarantined failed permanently (fresh or cached).
	Total, Executed, Cached, Quarantined int
	// Done is how many trials are complete (= Executed+Cached+Quarantined).
	Done int
	// Leased is the number of leases currently outstanding.
	Leased int
	// Duplicates counts records discarded by key dedupe; Reissued counts
	// lease expiries that put a trial back in the pending pool. Both are
	// expected to be non-zero under chaos and zero in a healthy fleet.
	Duplicates, Reissued int
	// Completions counts the completion requests served, whatever they
	// carried: against Executed it says how many trials shared a round trip.
	Completions int
	// Complete is true when every trial is done.
	Complete bool
}
