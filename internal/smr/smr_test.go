package smr

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simalloc"
)

func testAlloc(threads int) simalloc.Allocator {
	cfg := simalloc.DefaultConfig(threads)
	cfg.Cost = simalloc.Uniform()
	cfg.TCacheCap = 32
	cfg.FillCount = 16
	cfg.PageRunObjects = 16
	return simalloc.NewJEMalloc(cfg)
}

func testConfig(threads int) Config {
	cfg := DefaultConfig(testAlloc(threads), threads)
	cfg.BatchSize = 32
	return cfg
}

// mustNew constructs name through the registry, as the harness does.
func mustNew(t testing.TB, name string, cfg Config) Reclaimer {
	t.Helper()
	r, err := New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegistryNamesConstruct(t *testing.T) {
	for _, name := range Names() {
		r, err := New(name, testConfig(2))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		want := name
		if name == "token" {
			want = "token_periodic"
		}
		if r.Name() != want {
			t.Errorf("New(%q).Name() = %q", name, r.Name())
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("bogus", testConfig(1)); err == nil {
		t.Fatal("expected error")
	}
}

func TestExperimentListsResolvable(t *testing.T) {
	for _, n := range Experiment1Names() {
		if _, err := New(n, testConfig(1)); err != nil {
			t.Errorf("experiment 1 name %q: %v", n, err)
		}
	}
	for _, p := range Experiment2Pairs() {
		for _, n := range p {
			if _, err := New(n, testConfig(1)); err != nil {
				t.Errorf("experiment 2 name %q: %v", n, err)
			}
		}
	}
}

// singleThreadLifecycle retires objects through a reclaimer on one thread
// and verifies conservation after drain.
func TestSingleThreadLifecycle(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(1)
			r, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			alloc := cfg.Alloc
			const n = 200
			for i := 0; i < n; i++ {
				r.BeginOp(0)
				o := alloc.Alloc(0, 64)
				r.OnAlloc(0, o)
				r.Protect(0, 0, o)
				r.Retire(0, o)
				r.EndOp(0)
			}
			r.Drain(0)
			st := r.Stats()
			if st.Retired != n {
				t.Fatalf("retired = %d, want %d", st.Retired, n)
			}
			if name == "none" {
				if st.Freed != 0 {
					t.Fatalf("leaky reclaimer freed %d objects", st.Freed)
				}
				return
			}
			if st.Freed != n {
				t.Fatalf("freed = %d, want %d (limbo %d)", st.Freed, n, st.Limbo)
			}
			if st.Limbo != 0 {
				t.Fatalf("limbo = %d after drain", st.Limbo)
			}
			if alloc.LiveBytes() != 0 {
				t.Fatalf("allocator live bytes = %d after drain", alloc.LiveBytes())
			}
		})
	}
}

// TestGracePeriodPathsAllocNothing holds every scheme's retire → grace
// period → free cycle to zero host allocations once warm: bags, scan scratch
// and snapshots are per-thread and reused, the shared sweep's closure and
// the variadic depart / drain do not escape. One thread, objects recycled
// through an allocator whose cache never flushes, so any allocation counted
// is the reclaimer's own.
func TestGracePeriodPathsAllocNothing(t *testing.T) {
	for _, name := range Names() {
		if name == "none" {
			continue // leaks by design, so the allocator keeps carving fresh objects
		}
		t.Run(name, func(t *testing.T) {
			alloc := zeroCostAlloc()
			cfg := DefaultConfig(alloc, 1)
			cfg.BatchSize = 64
			r := mustNew(t, name, cfg)
			batch := func() {
				for i := 0; i < cfg.BatchSize; i++ {
					r.BeginOp(0)
					o := alloc.Alloc(0, 64)
					r.OnAlloc(0, o)
					r.Protect(0, i, o)
					r.Retire(0, o)
					r.EndOp(0)
				}
			}
			// Warm past the first grace periods, and past the point where an
			// AF queue's ring has compacted once and stopped growing.
			for i := 0; i < 64; i++ {
				batch()
			}
			if st := r.Stats(); st.Epochs == 0 || st.Freed == 0 {
				t.Fatalf("warm-up never reached a grace period: %+v", st)
			}
			if n := testing.AllocsPerRun(10, batch); n != 0 {
				t.Errorf("retiring BatchSize objects allocates %v times on the host; want 0", n)
			}
		})
	}
}

// TestConcurrentLifecycle runs every reclaimer under concurrent retire
// traffic with cross-thread object hand-off and checks conservation.
func TestConcurrentLifecycle(t *testing.T) {
	const threads = 4
	const opsPerThread = 500
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var stopFlag atomic.Bool
			cfg := testConfig(threads)
			cfg.Stopped = stopFlag.Load
			r, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			alloc := cfg.Alloc

			// Objects flow through a shared exchange so threads retire
			// objects allocated by other threads.
			exchange := make(chan *simalloc.Object, threads*4)
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < opsPerThread; i++ {
						r.BeginOp(tid)
						o := alloc.Alloc(tid, 240)
						r.OnAlloc(tid, o)
						r.Protect(tid, i%3, o)
						select {
						case exchange <- o:
							select {
							case prev := <-exchange:
								r.Retire(tid, prev)
							default:
							}
						default:
							r.Retire(tid, o)
						}
						r.EndOp(tid)
					}
				}(tid)
			}
			wg.Wait()
			stopFlag.Store(true)
			// Retire anything still in the exchange, then drain.
			close(exchange)
			for o := range exchange {
				r.Retire(0, o)
			}
			for tid := 0; tid < threads; tid++ {
				r.Drain(tid)
			}
			st := r.Stats()
			if st.Retired != threads*opsPerThread {
				t.Fatalf("retired = %d, want %d", st.Retired, threads*opsPerThread)
			}
			if name == "none" {
				return
			}
			if st.Freed != st.Retired || st.Limbo != 0 {
				t.Fatalf("freed=%d retired=%d limbo=%d", st.Freed, st.Retired, st.Limbo)
			}
			if alloc.LiveBytes() != 0 {
				t.Fatalf("allocator live bytes = %d", alloc.LiveBytes())
			}
		})
	}
}

// TestEpochAdvances verifies the epoch machinery makes progress for the
// epoch-based schemes under single-threaded operation.
func TestEpochAdvances(t *testing.T) {
	for _, name := range []string{"debra", "qsbr", "token_periodic", "token_af"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(1)
			r, _ := New(name, cfg)
			for i := 0; i < 300; i++ {
				r.BeginOp(0)
				o := cfg.Alloc.Alloc(0, 64)
				r.OnAlloc(0, o)
				r.Retire(0, o)
				r.EndOp(0)
			}
			if r.Stats().Epochs == 0 {
				t.Fatalf("%s made no epoch progress", name)
			}
		})
	}
}

// TestDebraDelayedThreadBlocksEpoch pins DEBRA's known sensitivity: a thread
// that never announces the current epoch prevents advancement.
func TestDebraDelayedThreadBlocksEpoch(t *testing.T) {
	cfg := testConfig(2)
	d := mustNew(t, "debra", cfg)
	// Thread 1 announces epoch 0 once, then goes silent.
	d.BeginOp(1)
	d.EndOp(1)
	before := d.Stats().Epochs
	// Thread 0 runs many ops; it can advance the epoch at most once (to 1,
	// since thread 1 announced 0), then must stall.
	for i := 0; i < 500; i++ {
		d.BeginOp(0)
		d.EndOp(0)
	}
	after := d.Stats().Epochs
	if after-before > 1 {
		t.Fatalf("epoch advanced %d times with a stalled thread", after-before)
	}
}

// TestEpochBagsOutliveReadersOfTheRetireEpoch scripts the grace period of
// DEBRA and QSBR with two threads. B announces g; A opens an operation in
// g+1, from which point it may reach X; B retires X. X was unlinked in
// g+1, so it must outlive A's operation, although B's announcement (g) is
// one behind the global epoch: a retire tagged by the retirer's
// announcement is freed as soon as the epoch reaches g+2, while A still
// reads.
func TestEpochBagsOutliveReadersOfTheRetireEpoch(t *testing.T) {
	for _, c := range []struct {
		name string
		// open starts an operation that may reach anything linked from here
		// on, and close ends it. QSBR's quiescent state is EndOp: it closes
		// the previous operation and opens the next.
		open, close func(Reclaimer, int)
	}{
		{"debra", Reclaimer.BeginOp, Reclaimer.EndOp},
		{"qsbr", Reclaimer.EndOp, func(Reclaimer, int) {}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(2)
			r := mustNew(t, c.name, cfg)
			const a, b = 0, 1
			epoch := func() int64 { return r.Stats().Epochs }

			c.open(r, b) // B announces g
			g := epoch()
			for i := 0; epoch() == g; i++ {
				if i == 8 {
					t.Fatalf("A alone did not advance the epoch past %d", g)
				}
				c.open(r, a)
				c.close(r, a)
			}
			c.open(r, a) // A announces g+1 and may reach X from here
			x := cfg.Alloc.Alloc(b, 64)
			r.OnAlloc(b, x)
			r.Retire(b, x)
			c.close(r, b)
			for i := 0; i < 16 && x.State() != simalloc.StateFree; i++ {
				c.open(r, b)
				c.close(r, b)
			}
			if x.State() == simalloc.StateFree {
				t.Fatalf("X, unlinked in epoch %d while A's operation from that epoch was open, was freed by epoch %d", g+1, epoch())
			}
			if e := epoch(); e > g+2 {
				t.Fatalf("the epoch reached %d with A's operation from %d still open", e, g+1)
			}
			c.close(r, a)
			for i := 0; i < 16 && x.State() != simalloc.StateFree; i++ {
				c.open(r, a)
				c.close(r, a)
				c.open(r, b)
				c.close(r, b)
			}
			if x.State() != simalloc.StateFree {
				t.Fatal("X was never freed after A's operation closed")
			}
		})
	}
}

// TestTokenRingOrder checks the token circulates the ring in order.
func TestTokenRingOrder(t *testing.T) {
	cfg := testConfig(3)
	tok := mustNew(t, "token_pass", cfg).(*Token)
	// Initially thread 0 holds the token.
	tok.BeginOp(1) // not holder: no-op
	if tok.Receipts(1) != 0 {
		t.Fatal("thread 1 received token out of order")
	}
	tok.BeginOp(0)
	if tok.Receipts(0) != 1 {
		t.Fatal("thread 0 did not receive token")
	}
	tok.BeginOp(2) // not holder yet
	if tok.Receipts(2) != 0 {
		t.Fatal("thread 2 received token out of order")
	}
	tok.BeginOp(1)
	if tok.Receipts(1) != 1 {
		t.Fatal("thread 1 did not receive token after 0 passed")
	}
	tok.BeginOp(2)
	if tok.Receipts(2) != 1 {
		t.Fatal("thread 2 did not receive token after 1 passed")
	}
	tok.BeginOp(0)
	if tok.Receipts(0) != 2 {
		t.Fatal("token did not wrap around the ring")
	}
	if got := tok.Stats().Epochs; got != 2 {
		t.Fatalf("epochs = %d, want 2 (two visits to thread 0)", got)
	}
}

// TestTokenSafetyWindow verifies an object retired in the current epoch is
// not freed until the token has gone all the way around twice (once to make
// the bag "previous", once more to free it).
func TestTokenSafetyWindow(t *testing.T) {
	cfg := testConfig(2)
	tok := mustNew(t, "token_pass", cfg).(*Token)
	o := cfg.Alloc.Alloc(0, 64)
	tok.BeginOp(0) // receives token; bags empty
	tok.Retire(0, o)
	tok.EndOp(0)
	if o.State() != simalloc.StateAllocated {
		t.Fatal("retired object freed immediately")
	}
	tok.BeginOp(1) // token to 1, then back to 0
	tok.BeginOp(0) // receipt 2: cur bag (with o) becomes prev
	if o.State() != simalloc.StateAllocated {
		t.Fatal("object freed after one rotation (prev bag only swapped)")
	}
	tok.BeginOp(1)
	tok.BeginOp(0) // receipt 3: prev bag (with o) freed
	if o.State() != simalloc.StateFree {
		t.Fatal("object not freed after full safety window")
	}
}

// TestHPProtectedObjectSurvivesScan verifies hazard pointers keep protected
// objects across scans and free them once unprotected. Fillers are
// pre-allocated so the allocator cannot recycle the victim's handle into
// the test's own later allocations.
func TestHPProtectedObjectSurvivesScan(t *testing.T) {
	cfg := testConfig(2)
	cfg.BatchSize = 4
	h := mustNew(t, "hp", cfg)
	alloc := cfg.Alloc

	victim := alloc.Alloc(1, 64)
	fillers := make([]*simalloc.Object, 20)
	for i := range fillers {
		fillers[i] = alloc.Alloc(0, 64)
	}
	h.Protect(1, 0, victim)

	// Thread 0 retires the victim plus filler to trigger scans.
	h.Retire(0, victim)
	for _, o := range fillers[:10] {
		h.Retire(0, o)
	}
	if victim.State() != simalloc.StateAllocated {
		t.Fatal("protected object was freed by scan")
	}
	// Thread 1 finishes its op: protection cleared.
	h.EndOp(1)
	for _, o := range fillers[10:] {
		h.Retire(0, o)
	}
	if victim.State() != simalloc.StateFree {
		t.Fatal("object not freed after protection cleared")
	}
}

// TestHPGuardProtectedObjectSurvivesScan is the Guard-path twin of
// TestHPProtectedObjectSurvivesScan: the victim is published through the
// inlined fast path, whose slot holds only an address, and two collections
// run before the scans that must still find it held.
func TestHPGuardProtectedObjectSurvivesScan(t *testing.T) {
	cfg := testConfig(2)
	cfg.BatchSize = 4
	h := mustNew(t, "hp", cfg)
	alloc := cfg.Alloc

	victim := alloc.Alloc(1, 64)
	fillers := make([]*simalloc.Object, 20)
	for i := range fillers {
		fillers[i] = alloc.Alloc(0, 64)
	}
	h.Guard(1).Protect(0, victim)
	runtime.GC()
	runtime.GC()

	h.Retire(0, victim)
	for _, o := range fillers[:10] {
		h.Retire(0, o)
	}
	if victim.State() != simalloc.StateAllocated {
		t.Fatal("object protected through the guard was freed by scan")
	}
	h.EndOp(1)
	for _, o := range fillers[10:] {
		h.Retire(0, o)
	}
	if victim.State() != simalloc.StateFree {
		t.Fatal("object not freed after protection cleared")
	}
}

// TestHEEraConflict verifies hazard eras keep objects whose lifetime
// interval is reserved.
func TestHEEraConflict(t *testing.T) {
	cfg := testConfig(2)
	cfg.BatchSize = 4
	cfg.EraFreq = 1 // advance era every retire
	h := mustNew(t, "he", cfg)
	alloc := cfg.Alloc

	h.BeginOp(1) // thread 1 reserves the current era
	victim := alloc.Alloc(0, 64)
	h.OnAlloc(0, victim)
	fillers := make([]*simalloc.Object, 16)
	for i := range fillers {
		fillers[i] = alloc.Alloc(0, 64)
	}
	h.Retire(0, victim) // victim interval contains thread 1's reservation
	for _, o := range fillers[:8] {
		h.OnAlloc(0, o) // restamp birth after the reservation era
		h.Retire(0, o)
	}
	if h.Stats().Freed == 0 {
		t.Fatal("scan freed nothing at all")
	}
	if victim.State() != simalloc.StateAllocated {
		t.Fatal("victim freed despite era reservation")
	}
	h.EndOp(1)
	for _, o := range fillers[8:] {
		h.OnAlloc(0, o)
		h.Retire(0, o)
	}
	if victim.State() != simalloc.StateFree {
		t.Fatal("victim not freed after reservation cleared")
	}
}

// TestIBRReservationConflict mirrors the HE test for IBR intervals.
func TestIBRReservationConflict(t *testing.T) {
	cfg := testConfig(2)
	cfg.BatchSize = 4
	cfg.EraFreq = 1
	r := mustNew(t, "ibr", cfg)
	alloc := cfg.Alloc

	r.BeginOp(1)
	victim := alloc.Alloc(0, 64)
	r.OnAlloc(0, victim)
	fillers := make([]*simalloc.Object, 16)
	for i := range fillers {
		fillers[i] = alloc.Alloc(0, 64)
	}
	r.Retire(0, victim)
	for _, o := range fillers[:8] {
		r.OnAlloc(0, o)
		r.Retire(0, o)
	}
	if victim.State() != simalloc.StateAllocated {
		t.Fatal("victim freed despite interval reservation")
	}
	r.EndOp(1)
	for _, o := range fillers[8:] {
		r.OnAlloc(0, o)
		r.Retire(0, o)
	}
	if victim.State() != simalloc.StateFree {
		t.Fatal("victim not freed after reservation cleared")
	}
}

// TestRCUMutualSynchronizeNoDeadlock pins the rcuThread.syncing bail-out:
// two threads whose limbo bags fill inside overlapping read-side critical
// sections both enter synchronize and would spin on each other's frozen odd
// counters forever. Wall-clock trials used to escape via the harness Stop
// flag; FixedOps trials have no such rescue, so the livelock must not form
// at all.
func TestRCUMutualSynchronizeNoDeadlock(t *testing.T) {
	for _, name := range []string{"rcu", "rcu_af"} {
		cfg := testConfig(2)
		cfg.BatchSize = 1 // every Retire triggers synchronize
		r := mustNew(t, name, cfg)
		alloc := cfg.Alloc

		var barrier, done sync.WaitGroup
		barrier.Add(2)
		done.Add(2)
		for tid := 0; tid < 2; tid++ {
			go func(tid int) {
				defer done.Done()
				r.BeginOp(tid)
				o := alloc.Alloc(tid, 64)
				barrier.Done()
				barrier.Wait() // both inside critical sections, bags about to fill
				r.Retire(tid, o)
				r.EndOp(tid)
			}(tid)
		}
		finished := make(chan struct{})
		go func() { done.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: mutual synchronize deadlocked", name)
		}
		for tid := 0; tid < 2; tid++ {
			r.Drain(tid)
		}
		if st := r.Stats(); st.Freed != 2 || st.Limbo != 0 {
			t.Fatalf("%s: freed=%d limbo=%d after drain", name, st.Freed, st.Limbo)
		}
	}
}

// TestNBRPlusElidesRounds verifies NBR+ skips neutralization when another
// round completed since the bag started filling.
func TestNBRPlusElidesRounds(t *testing.T) {
	cfg := testConfig(1)
	cfg.BatchSize = 4
	n := mustNew(t, "nbrplus", cfg)
	alloc := cfg.Alloc
	// First bag: must neutralize (round 1).
	for i := 0; i < 4; i++ {
		n.Retire(0, alloc.Alloc(0, 64))
	}
	if got := n.Stats().Epochs; got != 1 {
		t.Fatalf("epochs after first bag = %d, want 1", got)
	}
	// done advanced after the first bag; with a single thread the second
	// bag begins after done=1 > bagStartDone=0... bagStartDone is recorded
	// at first retire of the new bag, i.e. 1, so it must neutralize again.
	for i := 0; i < 4; i++ {
		n.Retire(0, alloc.Alloc(0, 64))
	}
	if got := n.Stats().Epochs; got != 2 {
		t.Fatalf("epochs after second bag = %d, want 2", got)
	}
	if n.Stats().Freed != 8 {
		t.Fatalf("freed = %d, want 8", n.Stats().Freed)
	}
}

// TestNBRPlusElisionSparesLaterRetires scripts NBR+'s elision with three
// threads. B starts a bag, then C's bag fills and its round completes with
// A and B idle. A opens an operation and may reach X from there on; B
// retires X, which fills its bag. The completed round began before X was
// retired, so it proves B's earlier retires unreachable and not X: the full
// bag frees its prefix without a new round and keeps X while A's operation
// is open.
func TestNBRPlusElisionSparesLaterRetires(t *testing.T) {
	cfg := testConfig(3)
	cfg.BatchSize = 4
	n := mustNew(t, "nbrplus", cfg)
	alloc := cfg.Alloc
	const a, b, c = 0, 1, 2
	retire := func(tid int) { n.Retire(tid, alloc.Alloc(tid, 64)) }

	for i := 0; i < 3; i++ {
		retire(b)
	}
	for i := 0; i < 4; i++ {
		retire(c)
	}
	if got := n.Stats().Epochs; got != 1 {
		t.Fatalf("rounds after C's bag = %d, want 1", got)
	}
	n.BeginOp(a)
	x := alloc.Alloc(b, 64)
	n.Retire(b, x)
	if x.State() == simalloc.StateFree {
		t.Fatal("X, retired after the only round completed, was freed while A's operation was open")
	}
	if st := n.Stats(); st.Epochs != 1 || st.Freed != 4+3 {
		t.Fatalf("after B's bag filled: rounds %d, freed %d; want 1 and 7 (C's bag and B's prefix, elided)", st.Epochs, st.Freed)
	}
	n.EndOp(a)
	for i := 0; i < 4 && x.State() != simalloc.StateFree; i++ {
		retire(b)
	}
	if x.State() != simalloc.StateFree {
		t.Fatal("X was never freed after A's operation closed")
	}
}

// TestNBROpenOperationHoldsItsLoads pins that NBR acknowledges a round only
// at an operation boundary. tid 1 opens an operation and holds X; tid 0
// retires X and fills its bag, so it neutralizes, then runs empty operations
// to pump an AF queue. However many nodes tid 1 visits meanwhile, through
// its guard or the interface, X must outlive the operation that loaded it,
// and be freed once that operation closes.
func TestNBROpenOperationHoldsItsLoads(t *testing.T) {
	for _, name := range []string{"nbr", "nbrplus", "nbr_af", "nbrplus_af"} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(2)
			cfg.BatchSize = 4
			r := mustNew(t, name, cfg)
			alloc := cfg.Alloc
			r.BeginOp(1)
			x, other := alloc.Alloc(1, 64), alloc.Alloc(1, 64)
			started, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				close(started)
				r.Retire(0, x)
				for i := 0; i < 3; i++ {
					r.Retire(0, alloc.Alloc(0, 64))
				}
				for i := 0; i < 8; i++ {
					r.BeginOp(0)
					r.EndOp(0)
				}
			}()
			g := r.Guard(1)
			freedAt := -1
			// At least 2000 visits over at least 10 ms from tid 0's start, so
			// a neutralizer descheduled on a loaded host still gets to act.
			<-started
			start := time.Now()
			for i := 0; (i < 2000 || time.Since(start) < 10*time.Millisecond) && freedAt < 0; i++ {
				if g != nil {
					g.Protect(i%HazardSlots, other)
				} else {
					r.Protect(1, i%HazardSlots, other)
				}
				runtime.Gosched()
				if x.State() == simalloc.StateFree {
					freedAt = i
				}
			}
			r.EndOp(1)
			<-done
			if freedAt >= 0 {
				t.Fatalf("X was freed at visit %d while the operation that loaded it was open", freedAt)
			}
			if x.State() != simalloc.StateFree {
				t.Fatal("X was not freed after the operation closed")
			}
		})
	}
}

// TestAFQueuesAndPumps verifies the amortized freer queues batches and
// drains DrainRate objects per operation.
func TestAFQueuesAndPumps(t *testing.T) {
	cfg := testConfig(1)
	cfg.DrainRate = 2
	d := mustNew(t, "debra_af", cfg)
	alloc := cfg.Alloc

	var retired []*simalloc.Object
	for i := 0; i < 20; i++ {
		d.BeginOp(0)
		o := alloc.Alloc(0, 64)
		retired = append(retired, o)
		d.Retire(0, o)
		d.EndOp(0)
	}
	st := d.Stats()
	if st.Freed == 0 {
		t.Fatal("AF freer never pumped")
	}
	if st.Freed >= st.Retired {
		t.Fatal("AF freed everything eagerly; expected gradual draining")
	}
	d.Drain(0)
	if got := d.Stats(); got.Freed != got.Retired {
		t.Fatalf("after drain freed=%d retired=%d", got.Freed, got.Retired)
	}
	for _, o := range retired {
		if o.State() != simalloc.StateFree {
			t.Fatal("object not freed after drain")
		}
	}
}

func TestAFQueueRingCompaction(t *testing.T) {
	var q afQueue
	mk := func() []*simalloc.Object {
		out := make([]*simalloc.Object, 64)
		for i := range out {
			out[i] = &simalloc.Object{ID: uint64(i)}
		}
		return out
	}
	// Push and pop enough to force compaction (head > 1024).
	for round := 0; round < 40; round++ {
		q.push(mk())
		for i := 0; i < 64; i++ {
			if q.pop() == nil {
				t.Fatal("queue underflow")
			}
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue len = %d, want 0", q.len())
	}
	if q.pop() != nil {
		t.Fatal("pop from empty queue returned object")
	}
}

// TestAFQueueReusesDrainedStorage pins that a queue drained between pushes
// (token_af and debra_af at a steady rate) stays the size of what it holds.
func TestAFQueueReusesDrainedStorage(t *testing.T) {
	var q afQueue
	batch := make([]*simalloc.Object, 64)
	for i := range batch {
		batch[i] = &simalloc.Object{ID: uint64(i)}
	}
	for round := 0; round < 10000; round++ {
		q.push(batch)
		for i, want := range batch {
			if got := q.pop(); got != want {
				t.Fatalf("round %d: pop %d returned %v, want object %d", round, i, got, want.ID)
			}
		}
		if q.pop() != nil || q.len() != 0 {
			t.Fatalf("round %d: queue not empty after draining its batch", round)
		}
	}
	if cap(q.objs) != len(batch) {
		t.Fatalf("cap(objs) = %d after push-one-batch/drain-it rounds, want one batch (%d)", cap(q.objs), len(batch))
	}
}

func TestAFQueueCompactionDropsReferences(t *testing.T) {
	var q afQueue
	mk := func(n int) []*simalloc.Object {
		out := make([]*simalloc.Object, n)
		for i := range out {
			out[i] = &simalloc.Object{ID: uint64(i)}
		}
		return out
	}
	// Build a long consumed prefix, then push to trigger compaction.
	q.push(mk(4096))
	for i := 0; i < 3000; i++ {
		q.pop()
	}
	q.push(mk(8))
	if q.head != 0 {
		t.Fatalf("head = %d, compaction did not run", q.head)
	}
	// The vacated tail of the backing array must not keep referencing
	// objects that were already handed to the allocator.
	tail := q.objs[len(q.objs):cap(q.objs)]
	for i, o := range tail {
		if o != nil {
			t.Fatalf("backing array slot %d still references object %d after compaction", i, o.ID)
		}
	}
}

func TestConfigDefaultsFilled(t *testing.T) {
	cfg := Config{Alloc: testAlloc(1), Threads: 1}
	got := newCore("test", cfg, false).e.cfg
	want := DefaultConfig(cfg.Alloc, 1)
	knobs := func(c Config) [4]int {
		return [4]int{c.BatchSize, c.DrainRate, c.TokenCheckK, c.EraFreq}
	}
	if knobs(got) != knobs(want) {
		t.Fatalf("a hand-built Config runs with %v; want DefaultConfig's %v", knobs(got), knobs(want))
	}
}

func TestConfigPanics(t *testing.T) {
	for _, cfg := range []Config{{}, {Alloc: testAlloc(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config did not panic")
				}
			}()
			newCore("test", cfg, false)
		}()
	}
}
