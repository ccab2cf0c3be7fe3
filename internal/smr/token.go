package smr

import (
	"repro/internal/clock"
	"repro/internal/simalloc"
)

// TokenVariant selects one of Section 4's Token-EBR implementations.
type TokenVariant int

const (
	// TokenNaive frees the previous bag *before* passing the token
	// (Section 4.1). Freeing serializes around the ring: no two threads
	// ever free concurrently, and garbage piles up catastrophically.
	TokenNaive TokenVariant = iota
	// TokenPassFirst passes the token before freeing, so threads free
	// concurrently; still suffers garbage pile-up because a thread holding
	// the token cannot pass it while stuck in a long batch free.
	TokenPassFirst
	// TokenPeriodic passes first and additionally re-checks for the token
	// every TokenCheckK free calls while freeing, passing it along
	// mid-batch. Lowers peak memory but cannot check *inside* a single
	// high-latency allocator free call, so pile-up persists.
	TokenPeriodic
	// TokenAF applies amortized freeing to TokenPeriodic: the previous bag
	// moves to the freeable list and objects are freed gradually, one per
	// operation. This is the paper's token_af, which outperforms the state
	// of the art by 1.5-2.6×.
	TokenAF
)

// Token implements the paper's Token-EBR (Section 4): threads form a ring
// and a token circulates; receiving the token means every thread has begun
// a new operation since the token last visited, so the receiver's previous
// limbo bag is safe to free. The algorithm needs one shared word (the
// holder index) and two bags per thread — dramatically simpler than DEBRA.
type Token struct {
	core
	variant TokenVariant

	// holder is written at every token pass and read by every BeginOp; the
	// core's f, variant and th are read by every operation and stay off its
	// line.
	holder isolated64
	th     []tokenThread
}

type tokenThread struct {
	cur, prev []*simalloc.Object
	receipts  int64
	_         [1]int64
}

// newToken returns the registry constructor of the given variant.
func newToken(variant TokenVariant) func(string, Config, bool) Reclaimer {
	return func(name string, cfg Config, af bool) Reclaimer {
		return &Token{core: newCore(name, cfg, af), variant: variant, th: make([]tokenThread, cfg.Threads)}
	}
}

// nextLive returns the next occupied slot after from in ring order, or
// from itself when no other slot is occupied. With a full population this
// is exactly (from+1) % Threads.
func (t *Token) nextLive(from int) int {
	n := t.e.cfg.Threads
	for i := 1; i < n; i++ {
		if s := (from + i) % n; t.e.reg.isLive(s) {
			return s
		}
	}
	return from
}

// pass hands the token to the next live slot in ring order. The CAS closes
// the race with a concurrent Leave of the target: Leave clears its live
// flag before checking whether it holds the token, and pass re-checks the
// target's live flag after the handoff — whichever of the two observes the
// other's store re-passes on the dead slot's behalf, so the token can
// never strand on a vacated slot while the ring has live members.
func (t *Token) pass(from int) {
	for {
		next := t.nextLive(from)
		if next == from {
			return // no other live participant; the token stays put
		}
		if !t.holder.v.CompareAndSwap(int64(from), int64(next)) {
			return // a concurrent Leave already re-homed the token
		}
		if t.e.reg.isLive(next) {
			return
		}
		from = next // next vacated mid-handoff and missed it; re-pass for it
	}
}

// BeginOp checks for the token; on receipt the thread enters a new epoch,
// frees its previous bag per the variant's policy, and swaps bags.
func (t *Token) BeginOp(tid int) {
	if t.holder.v.Load() != int64(tid) {
		return
	}
	me := &t.th[tid]
	me.receipts++
	if tid == 0 {
		// One full ring rotation per visit to thread 0: a global epoch.
		// (Epoch samples pause while slot 0 is vacated; grace periods do
		// not depend on this counter.)
		t.e.epochs.Add(1)
		t.e.sampleGarbage(tid)
	}
	// Adoption point: orphans enter the current bag at token receipt, so
	// they are freed only after this bag survives a bag swap plus a full
	// ring round — every live participant passes an operation boundary
	// in between.
	me.cur = t.adopt(me.cur)

	switch t.variant {
	case TokenNaive:
		t.freeNow(tid, me.prev)
		me.cur, me.prev = me.prev[:0], me.cur
		t.pass(tid)
	case TokenPassFirst:
		t.pass(tid)
		t.freeNow(tid, me.prev)
		me.cur, me.prev = me.prev[:0], me.cur
	case TokenPeriodic:
		t.pass(tid)
		t.freeWithTokenChecks(tid, me.prev)
		me.cur, me.prev = me.prev[:0], me.cur
	case TokenAF:
		t.pass(tid)
		// freeBatch queues the bag's contents on the freeable list, so the
		// bag's backing array is reusable immediately.
		t.freeBatch(tid, me.prev)
		me.cur, me.prev = me.prev[:0], me.cur
	}
}

// freeWithTokenChecks frees a bag one object at a time, checking every
// TokenCheckK frees whether the token has come back around, and passing it
// on if so. The check cannot interrupt an individual allocator free call —
// the paper's point about why this variant still piles up garbage.
func (t *Token) freeWithTokenChecks(tid int, batch []*simalloc.Object) {
	if len(batch) == 0 {
		return
	}
	k := t.e.cfg.TokenCheckK
	rec := t.e.rec
	var t0 int64
	if rec != nil {
		t0 = clock.Now()
	}
	for i, o := range batch {
		t.e.alloc.Free(tid, o)
		if (i+1)%k == 0 && t.holder.v.Load() == int64(tid) {
			t.pass(tid)
		}
	}
	t.e.noteFree(tid, int64(len(batch)))
	if rec != nil {
		rec.StageBatchFree(tid, t0, clock.Now(), int64(len(batch)))
	}
}

// Retire places o in the current bag.
func (t *Token) Retire(tid int, o *simalloc.Object) {
	me := &t.th[tid]
	me.cur = append(me.cur, o)
	t.e.noteRetire(tid)
}

// Receipts reports how many times tid has received the token.
func (t *Token) Receipts(tid int) int64 { return t.th[tid].receipts }

// Join occupies a vacated slot. If the token is stranded on a vacated slot
// — every participant left while one of them held it — the joiner claims
// it, restarting the ring; a token held by a live participant circulates
// on untouched.
func (t *Token) Join() (int, error) {
	slot, err := t.e.reg.join()
	if err != nil {
		return -1, err
	}
	for {
		h := t.holder.v.Load()
		if h == int64(slot) || t.e.reg.isLive(int(h)) {
			break
		}
		if t.holder.v.CompareAndSwap(h, int64(slot)) {
			break
		}
	}
	return slot, nil
}

// Leave hands both bags to the orphan queue and — if the slot holds the
// token — passes it to the next live participant so the ring keeps turning.
func (t *Token) Leave(tid int) {
	me := &t.th[tid]
	t.depart(tid, &me.cur, &me.prev)
	// After the live flag is down: if the token is (or just arrived) here,
	// move it along. See pass for why this closes the handoff race.
	if t.holder.v.Load() == int64(tid) {
		t.pass(tid)
	}
}

// Drain frees both bags, pending orphans, and the freeable list
// unconditionally. Not core.drain: under every variant, token_af included,
// both bags go straight to the allocator (freeNow, with its recorder
// envelope) rather than through the freeable list, previous bag first.
func (t *Token) Drain(tid int) {
	me := &t.th[tid]
	me.cur = t.adopt(me.cur)
	t.freeNow(tid, me.prev)
	me.prev = me.prev[:0]
	t.freeNow(tid, me.cur)
	me.cur = me.cur[:0]
	t.drainQueued(tid)
}
