package main

import "repro/internal/bench"

// fingerprint is the modelled outcome of a deterministic trial: with one
// simulated thread and a fixed op count the op streams, the allocator
// traffic and the reclaimer's decisions repeat bit for bit, on any host. A
// change that is meant to make the harness faster must leave it alone.
type fingerprint struct {
	Ops         int64 `json:"ops"`
	Allocs      int64 `json:"allocs"`
	Frees       int64 `json:"frees"`
	RemoteFrees int64 `json:"remote_frees"`
	Flushes     int64 `json:"flushes"`
	FreshPages  int64 `json:"fresh_pages"`
	Retired     int64 `json:"retired"`
	Freed       int64 `json:"freed"`
	Epochs      int64 `json:"epochs"`
	SetSize     int64 `json:"set_size"`
}

func fingerprintOf(d driven) fingerprint {
	return fingerprint{
		Ops: d.ops, Allocs: d.alloc.Allocs, Frees: d.alloc.Frees, RemoteFrees: d.alloc.RemoteFrees,
		Flushes: d.alloc.Flushes, FreshPages: d.alloc.FreshPages,
		Retired: d.smr.Retired, Freed: d.smr.Freed, Epochs: d.smr.Epochs, SetSize: d.size,
	}
}

// fingerprintConfig is the workload's stack at Threads=1 with a fixed seed:
// the pinned numbers must not depend on -seed.
func fingerprintConfig(w *workload) bench.WorkloadConfig {
	cfg := closedForm(w.trial(fullSize), fingerprintOps)
	cfg.Threads = 1
	cfg.Seed = 1
	return cfg
}

// checkFingerprint runs the workload's deterministic trial through the
// untraced driver and compares it with the pinned fingerprint.
func checkFingerprint(w *workload, opt options, c *checks) {
	var pinned map[string]fingerprint
	if err := readJSON(opt.fingerprints, &pinned); err != nil {
		c.check(false, "fingerprints: %v", err)
		return
	}
	d, err := drive(fingerprintConfig(w), nil)
	if err != nil {
		c.check(false, "fingerprint trial: %v", err)
		return
	}
	got, want := fingerprintOf(d), pinned[w.name]
	c.check(got == want, "fingerprint of %s: got %+v, pinned %+v", w.name, got, want)
}
