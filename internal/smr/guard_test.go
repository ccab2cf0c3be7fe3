package smr

import (
	"os/exec"
	"regexp"
	"testing"

	"repro/internal/simalloc"
)

// TestGuardModesPerReclaimer pins which registry names expose a live guard
// and in which mode, and that epoch-based schemes return nil (the trees'
// branch-away contract).
func TestGuardModesPerReclaimer(t *testing.T) {
	wantMode := map[string]GuardMode{
		"hp": GuardPtr, "hp_af": GuardPtr,
		"he": GuardEra, "he_af": GuardEra,
		"wfe": GuardEra, "wfe_af": GuardEra,
		"ibr": GuardInterval, "ibr_af": GuardInterval,
		"nbr": GuardAck, "nbr_af": GuardAck,
		"nbrplus": GuardAck, "nbrplus_af": GuardAck,
	}
	for _, name := range Names() {
		r, err := New(name, testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		g := r.Guard(1)
		mode, live := wantMode[name]
		if !live {
			if g != nil {
				t.Errorf("%s: epoch-based reclaimer returned a live guard", name)
			}
			continue
		}
		if g == nil {
			t.Fatalf("%s: no guard for a publishing reclaimer", name)
		}
		if g.Mode() != mode {
			t.Errorf("%s: guard mode %d, want %d", name, g.Mode(), mode)
		}
	}
}

// TestGuardProtectMatchesInterface drives Protect through the guard and
// through the interface on two separate instances of each publishing
// reclaimer and requires the published announcement state to be identical:
// the Guard semantics contract.
func TestGuardProtectMatchesInterface(t *testing.T) {
	const threads = 3
	objs := make([]*simalloc.Object, 8)
	for i := range objs {
		objs[i] = &simalloc.Object{ID: uint64(i), BirthEra: 1, RetireEra: 1 << 60}
	}

	// snapshot reads the observable announcement state of a reclaimer.
	snapshot := func(r Reclaimer) []int64 {
		switch v := r.(type) {
		case *HP:
			out := make([]int64, len(v.slots))
			for i := range v.slots {
				out[i] = int64(v.slots[i].p.Load())
			}
			return out
		case *HE:
			out := make([]int64, len(v.slots))
			for i := range v.slots {
				out[i] = v.slots[i].v.Load()
			}
			return out
		case *IBR:
			out := make([]int64, 0, 2*threads)
			for tid := 0; tid < threads; tid++ {
				out = append(out, v.lower[tid].v.Load(), v.upper[tid].v.Load())
			}
			return out
		case *NBR:
			out := make([]int64, 0, threads)
			for tid := 0; tid < threads; tid++ {
				out = append(out, v.acks[tid].v.Load())
			}
			return out
		default:
			t.Fatalf("unexpected reclaimer type %T", r)
			return nil
		}
	}

	// Slots run past HazardSlots, so HP's out-of-line path is driven too.
	for _, name := range []string{"hp", "he", "wfe", "ibr", "nbr", "nbrplus"} {
		t.Run(name, func(t *testing.T) {
			build := func() Reclaimer {
				r, err := New(name, testConfig(threads))
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			viaGuard, viaIface := build(), build()

			// A protection sequence exercising slot cycling and all tids.
			// For era/interval schemes, advance the global clock between
			// publications so re-publication actually changes state.
			drive := func(r Reclaimer, protect func(tid, slot int, o *simalloc.Object)) {
				for tid := 0; tid < threads; tid++ {
					r.BeginOp(tid)
				}
				for step, o := range objs {
					tid := step % threads
					protect(tid, step, o)
					// Nudge the era/epoch clock via a retire-free cycle on a
					// fresh object; done identically for both instances.
					if step == 3 {
						switch v := r.(type) {
						case *HE:
							v.clock.era.v.Add(1)
						case *IBR:
							v.clock.era.v.Add(1)
						case *NBR:
							v.round.v.Add(1)
						}
					}
				}
			}

			drive(viaGuard, func(tid, slot int, o *simalloc.Object) {
				viaGuard.Guard(tid).Protect(slot, o)
			})
			drive(viaIface, func(tid, slot int, o *simalloc.Object) {
				viaIface.Protect(tid, slot, o)
			})

			got, want := snapshot(viaGuard), snapshot(viaIface)
			if len(got) != len(want) {
				t.Fatalf("state length mismatch: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("announcement state diverged at %d: guard %d, interface %d\nguard %v\niface %v",
						i, got[i], want[i], got, want)
				}
			}
		})
	}
}

// TestGuardProtectInlines pins that Guard.Protect stays within the
// compiler's inlining budget and inlines at each tree's visit site: the HP
// fast path is a bounds check and one XCHG only while it is inlined, and the
// cost sits one below the budget, so a single added node loses it silently.
func TestGuardProtectInlines(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool not found: %v", err)
	}
	out, err := exec.Command(goBin, "build", "-gcflags=-m", "repro/internal/smr", "repro/internal/ds").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	want := []string{`can inline \(\*Guard\)\.Protect`}
	for _, file := range []string{"abtree.go", "occtree.go", "dgtree.go"} {
		want = append(want, file+`:\d+:\d+: inlining call to smr\.\(\*Guard\)\.Protect`)
	}
	for _, re := range want {
		if !regexp.MustCompile(re).Match(out) {
			t.Errorf("compiler output has no match for %q", re)
		}
	}
}
