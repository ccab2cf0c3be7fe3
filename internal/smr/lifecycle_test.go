package smr

import (
	"strings"
	"testing"

	"repro/internal/simalloc"
)

// TestJoinLeaveSlotRecycling pins the registry contract: slots recycle
// LIFO, Join fails once every slot is occupied, and the lifecycle counters
// track the traffic.
func TestJoinLeaveSlotRecycling(t *testing.T) {
	r, err := New("debra", testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Join(); err == nil {
		t.Fatal("Join succeeded with every slot occupied")
	}
	r.Leave(3)
	r.Leave(1)
	if slot, err := r.Join(); err != nil || slot != 1 {
		t.Fatalf("Join = (%d, %v), want the most recently vacated slot 1", slot, err)
	}
	if slot, err := r.Join(); err != nil || slot != 3 {
		t.Fatalf("Join = (%d, %v), want slot 3", slot, err)
	}
	if _, err := r.Join(); err == nil {
		t.Fatal("Join succeeded past capacity")
	}
	s := r.Stats()
	if s.Joins != 2 || s.Leaves != 2 {
		t.Fatalf("lifecycle counters = joins %d leaves %d, want 2/2", s.Joins, s.Leaves)
	}
}

// TestConfigErrors pins the satellite contract: a bad smr.Config surfaces
// as an error from New, not a panic.
func TestConfigErrors(t *testing.T) {
	if _, err := New("debra", Config{Alloc: testAlloc(1), Threads: 0}); err == nil ||
		!strings.Contains(err.Error(), "Threads") {
		t.Fatalf("Threads=0: err = %v, want Threads error", err)
	}
	if _, err := New("debra", Config{Threads: 1}); err == nil ||
		!strings.Contains(err.Error(), "Alloc") {
		t.Fatalf("nil Alloc: err = %v, want Alloc error", err)
	}
	if _, err := New("nope", testConfig(1)); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// retireSome allocates and retires n objects on tid through the full
// lifecycle (OnAlloc stamp included, so era schemes get valid intervals).
func retireSome(t *testing.T, r Reclaimer, alloc simalloc.Allocator, tid, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r.BeginOp(tid)
		o := alloc.Alloc(tid, 64)
		r.OnAlloc(tid, o)
		r.Retire(tid, o)
		r.EndOp(tid)
	}
}

// TestLeaveOrphansDrainedAtTeardown is the per-reclaimer adoption floor:
// a departed participant's limbo must survive in the orphan queue and be
// fully freed by teardown Drain, for every registered scheme.
func TestLeaveOrphansDrainedAtTeardown(t *testing.T) {
	for _, name := range Names() {
		if name == "none" {
			continue // the leaky baseline never frees by design
		}
		t.Run(name, func(t *testing.T) {
			alloc := testAlloc(3)
			cfg := DefaultConfig(alloc, 3)
			cfg.BatchSize = 16
			r, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			retireSome(t, r, alloc, 1, 40)
			retireSome(t, r, alloc, 2, 25)
			r.Leave(1)
			r.Leave(2)
			for tid := 0; tid < 3; tid++ {
				r.Drain(tid)
			}
			s := r.Stats()
			if s.Limbo != 0 {
				t.Fatalf("limbo %d after teardown drain (retired %d freed %d)", s.Limbo, s.Retired, s.Freed)
			}
			if s.Freed != s.Retired {
				t.Fatalf("freed %d != retired %d after teardown drain", s.Freed, s.Retired)
			}
			if s.Leaves != 2 {
				t.Fatalf("leaves = %d, want 2", s.Leaves)
			}
		})
	}
}

// TestTokenRingSkipsDepartedSlots pins the ring-membership surgery: the
// token passes over vacated slots, a departing holder re-homes it, and a
// joiner claims a token stranded on a dead slot.
func TestTokenRingSkipsDepartedSlots(t *testing.T) {
	tok := mustNew(t, "token_af", testConfig(3)).(*Token)

	tok.Leave(1)
	// holder starts at slot 0; receipt there must pass over dead slot 1.
	tok.BeginOp(0)
	if got := tok.Receipts(0); got != 1 {
		t.Fatalf("receipts(0) = %d, want 1", got)
	}
	tok.BeginOp(2)
	if got := tok.Receipts(2); got != 1 {
		t.Fatalf("receipts(2) = %d after skip-pass, want 1 (token did not skip dead slot)", got)
	}
	tok.BeginOp(0)
	if got := tok.Receipts(0); got != 2 {
		t.Fatalf("receipts(0) = %d, want 2 (ring did not come back around)", got)
	}

	// Slot 0 holds the token and leaves: the token must move to slot 2.
	tok.Leave(0)
	tok.BeginOp(2)
	if got := tok.Receipts(2); got != 2 {
		t.Fatalf("receipts(2) = %d, want 2 (departing holder stranded the token)", got)
	}

	// Everyone leaves while slot 2 holds the token; a joiner reclaims it.
	tok.Leave(2)
	slot, err := tok.Join()
	if err != nil {
		t.Fatal(err)
	}
	tok.BeginOp(slot)
	if got := tok.Receipts(slot); got < 1 {
		t.Fatalf("receipts(%d) = %d, want >= 1 (joiner did not recover the parked token)", slot, got)
	}
}

// TestEpochSchemesAdvancePastDepartedSlots pins the grace-period surgery
// for the announcement-scan schemes: with a vacated slot, a lone survivor
// must still advance the epoch (pre-surgery, the scan waited forever on
// the departed slot's stale announcement).
func TestEpochSchemesAdvancePastDepartedSlots(t *testing.T) {
	for _, name := range []string{"debra", "qsbr"} {
		t.Run(name, func(t *testing.T) {
			alloc := testAlloc(2)
			cfg := DefaultConfig(alloc, 2)
			r, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Leave(1)
			retireSome(t, r, alloc, 0, 64)
			if got := r.Stats().Epochs; got == 0 {
				t.Fatal("epoch never advanced with a departed slot in the scan")
			}
		})
	}
}
