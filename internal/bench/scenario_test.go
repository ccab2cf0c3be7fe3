package bench

import (
	"sort"
	"testing"
	"time"

	"repro/internal/ds"
)

func TestScenarioRegistry(t *testing.T) {
	names := Scenarios()
	if len(names) < 4 {
		t.Fatalf("only %d scenarios registered: %v", len(names), names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Scenarios() not sorted: %v", names)
	}
	for _, want := range []string{"paper", "read_mostly", "zipf", "hotspot", "bursty"} {
		if _, err := NewScenario(want); err != nil {
			t.Errorf("NewScenario(%q): %v", want, err)
		}
	}
	if _, err := NewScenario("bogus"); err == nil {
		t.Error("unknown scenario accepted")
	}
	// The empty name is the seed methodology.
	wl, err := NewScenario("")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name() != "paper" {
		t.Errorf("empty scenario resolved to %q, want paper", wl.Name())
	}
}

func TestRegisterScenarioDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterScenario("paper", func() Workload { return nil })
}

// drawKeys pulls n keys from tid 0's key stream of a scenario.
func drawKeys(t *testing.T, name string, cfg *WorkloadConfig, n int) []int64 {
	t.Helper()
	wl, err := NewScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	kd := wl.KeyDist(cfg, 0)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = kd.Next()
	}
	return keys
}

func TestZipfianSkew(t *testing.T) {
	cfg := tinyWorkload(1)
	cfg.KeyRange = 1024
	const n = 200000
	counts := make(map[int64]int, cfg.KeyRange)
	for _, k := range drawKeys(t, "zipf", &cfg, n) {
		if k < 0 || k >= cfg.KeyRange {
			t.Fatalf("key %d outside [0,%d)", k, cfg.KeyRange)
		}
		counts[k]++
	}
	// Statistical sanity: the rank-1 key's frequency must dwarf the
	// median-rank frequency. For theta=0.99 over 1024 keys the true ratio
	// is ~470x; assert a conservative 20x so the test never flakes.
	all := make([]int, 0, cfg.KeyRange)
	for k := int64(0); k < cfg.KeyRange; k++ {
		all = append(all, counts[k])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(all)))
	top, median := all[0], all[len(all)/2]
	if median < 1 {
		median = 1
	}
	if top < 20*median {
		t.Fatalf("zipf not skewed: top %d, median %d", top, median)
	}
	// Uniform, for contrast, must NOT be skewed.
	ucounts := make(map[int64]int, cfg.KeyRange)
	for _, k := range drawKeys(t, "paper", &cfg, n) {
		ucounts[k]++
	}
	var umax int
	for _, c := range ucounts {
		if c > umax {
			umax = c
		}
	}
	if mean := n / int(cfg.KeyRange); umax > 3*mean {
		t.Fatalf("uniform keys skewed: max %d, mean %d", umax, mean)
	}
}

func TestScatterIsBijective(t *testing.T) {
	// The rank->key permutation must be injective: a colliding hash would
	// merge zipf frequencies and leave part of the keyspace unreachable.
	for _, n := range []int64{2, 3, 1000, 1024, 32768, 100000} {
		mult := scatterMult(n)
		if gcd(mult, n) != 1 {
			t.Fatalf("scatterMult(%d) = %d not coprime", n, mult)
		}
		seen := make(map[int64]bool, n)
		for rank := int64(0); rank < n; rank++ {
			k := (rank * mult) % n
			if k < 0 || k >= n {
				t.Fatalf("n=%d rank %d maps outside range: %d", n, rank, k)
			}
			if seen[k] {
				t.Fatalf("n=%d: key %d hit twice", n, k)
			}
			seen[k] = true
		}
	}
}

func TestEmptyScenarioReportsPaper(t *testing.T) {
	cfg := tinyWorkload(2)
	cfg.Scenario = ""
	cfg.Duration = 15 * time.Millisecond
	tr, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scenario != "paper" {
		t.Fatalf("TrialResult.Scenario = %q, want paper", tr.Scenario)
	}
}

func TestZipfianDeterministicPerSeed(t *testing.T) {
	cfg := tinyWorkload(1)
	a := drawKeys(t, "zipf", &cfg, 1000)
	b := drawKeys(t, "zipf", &cfg, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("zipf stream not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestHotspotShifts(t *testing.T) {
	cfg := tinyWorkload(1)
	cfg.KeyRange = 1 << 12
	cfg.HotShiftOps = 1000
	wl, err := NewScenario("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	kd := wl.KeyDist(&cfg, 0)
	// Two consecutive windows of HotShiftOps ops should concentrate on
	// different hot ranges: compare their most common key-bucket.
	bucket := func(k int64) int64 { return k / (cfg.KeyRange / 16) }
	window := func() int64 {
		counts := map[int64]int{}
		for i := 0; i < 1000; i++ {
			counts[bucket(kd.Next())]++
		}
		var best int64
		for b, c := range counts {
			if c > counts[best] {
				best = b
			}
		}
		if counts[best] < 400 {
			t.Fatalf("no hot bucket: max count %d/1000", counts[best])
		}
		return best
	}
	if first, second := window(), window(); first == second {
		t.Fatalf("hotspot did not shift: bucket %d in both windows", first)
	}
}

func TestOpMixRatios(t *testing.T) {
	cfg := tinyWorkload(1)
	count := func(name string, n int) map[Op]int {
		wl, err := NewScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		om := wl.OpMix(&cfg, 0)
		counts := map[Op]int{}
		for i := 0; i < n; i++ {
			counts[om.Next()]++
		}
		return counts
	}

	// paper: 50/50 insert/delete, no reads.
	c := count("paper", 100000)
	if c[OpContains] != 0 {
		t.Errorf("paper mix produced %d Contains", c[OpContains])
	}
	if ratio := float64(c[OpInsert]) / float64(c[OpDelete]); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("paper mix not 50/50: %v", c)
	}

	// read_mostly: ~90% Contains, balanced updates.
	c = count("read_mostly", 100000)
	if frac := float64(c[OpContains]) / 100000; frac < 0.88 || frac > 0.92 {
		t.Errorf("read_mostly Contains fraction %.3f, want ~0.9", frac)
	}
	if c[OpInsert] == 0 || c[OpDelete] == 0 {
		t.Errorf("read_mostly missing updates: %v", c)
	}

	// bursty: alternating pure-churn and pure-read windows.
	cfg.BurstOps = 100
	wl, err := NewScenario("bursty")
	if err != nil {
		t.Fatal(err)
	}
	om := wl.OpMix(&cfg, 0)
	for i := 0; i < 100; i++ {
		if op := om.Next(); op == OpContains {
			t.Fatalf("churn window op %d is a read", i)
		}
	}
	for i := 0; i < 100; i++ {
		if op := om.Next(); op != OpContains {
			t.Fatalf("read window op %d is an update", i)
		}
	}
}

func TestAllScenariosRunAllStructures(t *testing.T) {
	for _, name := range Scenarios() {
		for _, dsName := range ds.Names() {
			cfg := tinyWorkload(2)
			cfg.Scenario = name
			cfg.DataStructure = dsName
			cfg.Duration = 15 * time.Millisecond
			tr, err := RunTrial(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, dsName, err)
			}
			if tr.Ops == 0 {
				t.Fatalf("%s/%s: no ops", name, dsName)
			}
			if tr.Scenario != name {
				t.Errorf("%s/%s: TrialResult.Scenario = %q", name, dsName, tr.Scenario)
			}
		}
	}
}

func TestNewStackAndTeardown(t *testing.T) {
	cfg := DefaultWorkload(2)
	cfg.Allocator, cfg.Reclaimer, cfg.DataStructure = "tcmalloc", "debra_af", "occtree"
	cfg.Record, cfg.RecorderCap = true, 1000
	cfg.KeyRange = 1 << 10
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Recorder == nil {
		t.Fatal("recorder not built")
	}
	if got := st.Config().KeyRange; got != 1<<10 {
		t.Fatalf("config not kept: KeyRange %d", got)
	}
	for i := 0; i < 1000; i++ {
		st.Set.Insert(0, int64(i%64))
		st.Set.Delete(1, int64(i%64))
	}
	if st.Reclaimer.Stats().Retired == 0 {
		t.Fatal("no retirements through the stack")
	}
	st.Close()
	st.Close() // idempotent
	if !st.Stopped() {
		t.Fatal("Close did not stop the stack")
	}
	if limbo := st.Reclaimer.Stats().Limbo; limbo != 0 {
		t.Fatalf("Close left %d objects in limbo", limbo)
	}
	cfg.Reclaimer = "bogus"
	if _, err := NewStack(cfg); err == nil {
		t.Fatal("unknown reclaimer accepted")
	}
}

func TestPaperScenarioStreamsMatchSeedFormulas(t *testing.T) {
	// The "paper" scenario must keep the seed harness's per-thread RNG
	// streams bit-identical so the paper's tables and figures reproduce
	// byte-for-byte: key stream from Seed + tid*0xa0761d6478bd642f + 7,
	// coin stream from Seed + tid*0x8ebc6af09c88c6e3 + 5 with the 1<<30
	// insert test.
	cfg := tinyWorkload(4)
	cfg.Seed = 42
	wl, err := NewScenario("paper")
	if err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < cfg.Threads; tid++ {
		kd := wl.KeyDist(&cfg, tid)
		om := wl.OpMix(&cfg, tid)
		keyRNG := newRNG(cfg.Seed + uint64(tid)*0xa0761d6478bd642f + 7)
		coinRNG := newRNG(cfg.Seed + uint64(tid)*0x8ebc6af09c88c6e3 + 5)
		for i := 0; i < 10000; i++ {
			if want, got := keyRNG.intn(cfg.KeyRange), kd.Next(); got != want {
				t.Fatalf("tid %d op %d: key %d, want %d", tid, i, got, want)
			}
			want := OpDelete
			if coinRNG.next()&(1<<30) == 0 {
				want = OpInsert
			}
			if got := om.Next(); got != want {
				t.Fatalf("tid %d op %d: op %d, want %d", tid, i, got, want)
			}
		}
	}
}
