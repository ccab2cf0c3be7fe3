package fleet

import (
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/results"
)

// TestLocalSourceDrains pins degraded-local mode. There is no local source
// any more: when no worker shows up, `epochgrid -serve` starts the worker
// built here — named "local", unlimited capacity, no spool — against its own
// listener, so the sweep drains through the same lease/complete state
// machine remote workers use: claims journaled, status converged, one record
// per key.
func TestLocalSourceDrains(t *testing.T) {
	store := results.NewMemStore()
	cfgs := tinyCfgs(2)
	coord, err := NewCoordinator(cfgs, 2, CoordinatorConfig{Store: store, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	local := &Worker{
		Client:   &Client{Base: startFleet(t, coord).URL},
		Runner:   &grid.Runner{},
		Name:     "local",
		Capacity: -1,
	}
	if _, err := local.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	st := coord.Status()
	if !st.Complete || st.Executed != 4 || st.Duplicates != 0 {
		t.Fatalf("local drain did not converge: %+v", st)
	}
	if coord.Granted() != 4 {
		t.Fatalf("granted %d leases, want 4", coord.Granted())
	}
	for _, k := range store.Keys() {
		if n := len(store.Get(k)); n != 1 {
			t.Fatalf("key %s has %d records, want 1", k, n)
		}
	}
	// Every grant left an auditable claim in the journal.
	claims := 0
	for _, rec := range store.Journal() {
		if rec.Kind == results.KindClaim && rec.Worker == "local" {
			claims++
		}
	}
	if claims != 4 {
		t.Fatalf("journaled %d local claims, want 4", claims)
	}
	// The status surface attributes the work to the local pseudo-worker.
	found := false
	for _, w := range st.Workers {
		if w.Name == "local" && w.Done == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("status missing local worker attribution: %+v", st.Workers)
	}
}
