package fleet

import (
	"context"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
)

// LocalSource adapts the coordinator into an in-process grid.Source: leases,
// renewals, and completions go through the exact same state machine remote
// workers use — claims journaled, dedupe enforced, per-worker stats tracked —
// just without HTTP in between. This is the degraded-local mode of
// `epochgrid -serve`: when no worker shows up within a grace window, the
// serving process drains its own sweep through this source, so one binary
// invocation never waits forever. It composes safely with workers that
// arrive late: both sides lease from one lock-protected pool, and a trial
// finished twice dedupes by key like any other lease race.
func (c *Coordinator) LocalSource(name string) grid.Source {
	return &localSource{c: c, name: name}
}

type localSource struct {
	c    *Coordinator
	name string

	lease   LeaseResponse // current grant (state between Next and Complete)
	renewal renewal
}

// Next leases the next pending trial from the in-process coordinator,
// waiting out StatusWait states (trials leased to remote workers may still
// expire back into the pool).
func (s *localSource) Next(ctx context.Context) (bench.WorkloadConfig, bool, error) {
	for {
		if err := ctx.Err(); err != nil {
			return bench.WorkloadConfig{}, false, err
		}
		resp, err := s.c.Lease(LeaseRequest{Worker: s.name})
		if err != nil {
			return bench.WorkloadConfig{}, false, err
		}
		switch resp.Status {
		case StatusDone:
			return bench.WorkloadConfig{}, false, nil
		case StatusWait:
			if err := sleepRetry(ctx, resp.RetryMs); err != nil {
				return bench.WorkloadConfig{}, false, err
			}
			continue
		default: // StatusLease
			s.lease = resp
			// Without renewal a trial longer than the TTL would be re-issued
			// to a remote worker and run twice (harmless via dedupe, but
			// wasteful).
			s.renewal.start(ctx, s.c.ttl/3, func() {
				s.c.Renew(RenewRequest{LeaseID: resp.LeaseID, Worker: s.name})
			})
			return resp.Config, true, nil
		}
	}
}

// Complete delivers the finished trial to the coordinator. Same contract as
// the remote path: identity is the key, so a duplicate (the trial expired
// and a late worker also ran it) is acknowledged, not an error.
func (s *localSource) Complete(ctx context.Context, cfg bench.WorkloadConfig, rec results.Record) error {
	s.renewal.halt()
	lease := s.lease
	s.lease = LeaseResponse{}
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := s.c.Complete(CompleteRequest{
		LeaseID: lease.LeaseID, Worker: s.name, Key: lease.Key, Record: rec,
	})
	return err
}
