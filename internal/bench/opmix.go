package bench

// Operation-mix implementations for the scenario engine: the paper's
// update-heavy 50/50, a read-mostly 90/5/5, and a phased churn/read mix.

// opSeed reproduces the seed harness's per-thread coin-stream seed. Key and
// coin come from independent streams: deriving both from one xorshift
// stream makes the coin a deterministic function of the key (the low output
// bits are a linear function of the previous state's low bits), which
// freezes the set at exactly half the key range with zero successful
// operations.
func opSeed(cfg *WorkloadConfig, tid int) uint64 {
	return cfg.Seed + uint64(tid)*0x8ebc6af09c88c6e3 + 5
}

// updateHeavy is the paper's mix: 50% insert / 50% delete, no reads. The
// coin test is kept bit-identical to the seed RunTrial.
type updateHeavy struct {
	r rng
}

func newUpdateHeavy(cfg *WorkloadConfig, tid int) OpMix {
	return &updateHeavy{r: newRNG(opSeed(cfg, tid))}
}

func (m *updateHeavy) Next() Op {
	if m.r.next()&(1<<30) == 0 {
		return OpInsert
	}
	return OpDelete
}

// readMostly is the classic search-structure profile: 90% Contains,
// 5% Insert, 5% Delete. The update halves balance, so the steady-state
// size holds while the retire rate drops by ~10x versus the paper mix.
type readMostly struct {
	r rng
}

func newReadMostly(cfg *WorkloadConfig, tid int) OpMix {
	return &readMostly{r: newRNG(opSeed(cfg, tid))}
}

func (m *readMostly) Next() Op {
	u := (m.r.next() >> 17) % 100
	switch {
	case u < 90:
		return OpContains
	case u < 95:
		return OpInsert
	default:
		return OpDelete
	}
}

// burstMix alternates fixed-length windows of pure 50/50 churn with
// windows of pure reads, so retirement arrives in bursts and the
// reclaimer's limbo drains during the quiet windows. The window length is
// WorkloadConfig.BurstOps.
type burstMix struct {
	r        rng
	burstOps int64
	i        int64
}

func newBurstMix(cfg *WorkloadConfig, tid int) OpMix {
	window := int64(cfg.BurstOps)
	if window <= 0 {
		window = 4096
	}
	return &burstMix{r: newRNG(opSeed(cfg, tid)), burstOps: window}
}

func (m *burstMix) Next() Op {
	pos := m.i % (2 * m.burstOps)
	m.i++
	if pos < m.burstOps { // churn window
		if m.r.next()&(1<<30) == 0 {
			return OpInsert
		}
		return OpDelete
	}
	return OpContains
}
