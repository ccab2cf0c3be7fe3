package results

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
)

// Crash-safety tests for the JSONL store: the properties the fleet
// coordinator leans on when workers die, processes share one file, and the
// same trial arrives from two places at once.

func crashCfg(seed uint64) bench.WorkloadConfig {
	cfg := bench.DefaultWorkload(2)
	cfg.KeyRange = 1 << 10
	cfg.Seed = seed
	return cfg
}

func crashRec(seed uint64) Record {
	cfg := crashCfg(seed)
	return NewRecord(cfg, bench.TrialResult{Scenario: cfg.Scenario, Seed: seed, Ops: int64(seed)})
}

// TestStoreLoadSurvivesTornLines fuzzes the kill -9 disk states: a valid
// store whose tail (or middle, when two writers raced a crash) is truncated
// at every possible byte offset must load every record that landed whole and
// silently skip the torn one.
func TestStoreLoadSurvivesTornLines(t *testing.T) {
	var lines []string
	for i := 0; i < 4; i++ {
		b, err := recJSON(crashRec(uint64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	whole := strings.Join(lines, "\n") + "\n"

	rng := rand.New(rand.NewSource(1))
	offsets := []int{len(whole) - 1, len(whole) - 2, len(lines[0]) + 1} // classic tails
	for i := 0; i < 200; i++ {
		offsets = append(offsets, rng.Intn(len(whole)))
	}
	dir := t.TempDir()
	for _, cut := range offsets {
		torn := whole[:cut]
		// Every record whose full line (including '\n') survived the cut
		// must load.
		wantFull := strings.Count(torn, "\n")
		path := filepath.Join(dir, fmt.Sprintf("cut%d.jsonl", cut))
		if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path)
		if err != nil {
			t.Fatalf("cut=%d: torn store failed to open: %v", cut, err)
		}
		got := st.Len()
		st.Close()
		// The unterminated tail segment still loads when (and only when) the
		// cut happened to leave it valid JSON — e.g. a whole final line
		// missing only its newline. A mid-object cut never parses.
		want := wantFull
		if tail := torn[sumLen(lines, wantFull):]; len(tail) > 0 && json.Valid([]byte(tail)) {
			want++
		}
		if got != want {
			t.Fatalf("cut=%d: loaded %d records, want %d", cut, got, want)
		}
	}

	// Garbage in the middle (a foreign writer, a corrupted block) skips that
	// line only.
	garbled := lines[0] + "\n{\"key\": \"half" + "\n" + lines[1] + "\n\x00\xff\xfe\n" + lines[2] + "\n"
	path := filepath.Join(dir, "garbled.jsonl")
	if err := os.WriteFile(path, []byte(garbled), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatalf("garbled store failed to open: %v", err)
	}
	defer st.Close()
	if st.Len() != 3 {
		t.Fatalf("garbled store loaded %d records, want the 3 intact ones", st.Len())
	}
}

func recJSON(rec Record) (string, error) {
	b, err := json.Marshal(rec)
	return string(b), err
}

func sumLen(lines []string, n int) int {
	total := 0
	for _, l := range lines[:n] {
		total += len(l) + 1
	}
	return total
}

// TestStoreConcurrentAppendTwoHandles is the two-process scenario: two
// Stores (two file handles, two in-memory indexes) append to one path
// concurrently. O_APPEND + one write(2) per record must interleave whole
// lines — a reload sees every record from both writers, none torn.
func TestStoreConcurrentAppendTwoHandles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.jsonl")
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}

	const per = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			if err := a.Append(crashRec(uint64(1000 + i))); err != nil {
				t.Errorf("writer a: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			if err := b.Append(crashRec(uint64(2000 + i))); err != nil {
				t.Errorf("writer b: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	a.Close()
	b.Close()

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2*per {
		t.Fatalf("reloaded %d records from two concurrent writers, want %d", re.Len(), 2*per)
	}
	seen := map[string]bool{}
	for _, rec := range re.Records() {
		if seen[rec.Key] {
			t.Fatalf("key %s appears twice after concurrent append", rec.Key)
		}
		seen[rec.Key] = true
	}
}

// TestStoreMergeDedupesIdenticalTrialKeys: two workers ran overlapping
// slices of one sweep (the lease-race aftermath); merging their stores keeps
// exactly one record per TrialKey.
func TestStoreMergeDedupesIdenticalTrialKeys(t *testing.T) {
	w1, w2 := NewMemStore(), NewMemStore()
	for i := 0; i < 6; i++ {
		if err := w1.Append(crashRec(uint64(i))); err != nil { // trials 0..5
			t.Fatal(err)
		}
	}
	for i := 3; i < 9; i++ { // trials 3..8 — 3..5 overlap
		if err := w2.Append(crashRec(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}

	merged := NewMemStore()
	if _, err := merged.Merge(w1); err != nil {
		t.Fatal(err)
	}
	added, err := merged.Merge(w2)
	if err != nil {
		t.Fatal(err)
	}
	if added != 3 {
		t.Fatalf("second merge added %d records, want only the 3 non-overlapping", added)
	}
	if merged.Len() != 9 {
		t.Fatalf("merged store has %d records, want 9 distinct trials", merged.Len())
	}
	for _, key := range merged.Keys() {
		if n := len(merged.Get(key)); n != 1 {
			t.Fatalf("key %s has %d records after merge, want 1", key, n)
		}
	}
}

// TestStoreAppendIfAbsentRace: many goroutines race the same record (the
// in-process shape of duplicate completions); exactly one append wins.
func TestStoreAppendIfAbsentRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := crashRec(7)
	const racers = 16
	var wg sync.WaitGroup
	wins := make(chan bool, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			added, err := st.AppendIfAbsent(rec)
			if err != nil {
				t.Errorf("AppendIfAbsent: %v", err)
				return
			}
			wins <- added
		}()
	}
	wg.Wait()
	close(wins)
	won := 0
	for w := range wins {
		if w {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d racers won the append, want exactly 1", won)
	}
	st.Close()

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 || len(re.Get(rec.Key)) != 1 {
		t.Fatalf("raced key persisted %d times, want 1", len(re.Get(rec.Key)))
	}
}

// claimLine is a lease claim as an older fleet coordinator appended it to
// the store: the trial's key and a kind, no config and no result.
func claimLine(key, worker string, until int64) string {
	return fmt.Sprintf(`{"key":%q,"group":"","schema":%d,"seed":0,"config":{},"trial":{},"kind":"claim","worker":%q,"lease_until":%d}`,
		key, SchemaVersion, worker, until)
}

// TestLegacyClaimLinesLoadAsNothing: a store written by a build that
// journaled lease claims loads as if the claim lines were not there — one
// beside the record of its trial, one for a trial that never finished — in
// memory and through Open alike. A claim that loaded as a record would make
// resume skip a trial that never ran.
func TestLegacyClaimLinesLoadAsNothing(t *testing.T) {
	done, claimed := crashRec(3), crashRec(4)
	doneLine, err := recJSON(done)
	if err != nil {
		t.Fatal(err)
	}
	fixture := strings.Join([]string{
		claimLine(done.Key, "w1", 1700000000000000000),
		doneLine,
		claimLine(claimed.Key, "w2", 1700000000000000001),
		claimLine(claimed.Key, "w1", 1700000000000000002),
		"",
	}, "\n")
	check := func(how string, st *Store) {
		t.Helper()
		if st.Len() != 1 || !st.Has(done.Key) || st.Has(claimed.Key) {
			t.Fatalf("%s: len=%d has(done)=%t has(claimed)=%t, want only the trial record", how, st.Len(), st.Has(done.Key), st.Has(claimed.Key))
		}
		if recs := st.Records(); len(recs) != 1 || recs[0].Key != done.Key || recs[0].Kind != "" {
			t.Fatalf("%s: Records() = %+v, want the one trial record", how, recs)
		}
		if keys := st.Keys(); !slices.Equal(keys, []string{done.Key}) {
			t.Fatalf("%s: Keys() = %v, want [%s]", how, keys, done.Key)
		}
	}
	mem := NewMemStore()
	if err := mem.Load(strings.NewReader(fixture)); err != nil {
		t.Fatal(err)
	}
	check("Load", mem)

	path := filepath.Join(t.TempDir(), "legacy.jsonl")
	if err := os.WriteFile(path, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check("Open", st)
}

// TestStoreLoadParallelParity: load decodes batches of lines on up to
// GOMAXPROCS goroutines, and what it builds must not depend on how many —
// torn and blank lines skipped, an older build's claim lines dropped, duplicates of
// one key kept in file order, Records() in file order. The reference is a
// line-at-a-time decode. Phase slices differ per record so a decode into a
// reused, un-reset Record would show up as one record's schedule inside
// another.
func TestStoreLoadParallelParity(t *testing.T) {
	var file strings.Builder
	want := NewMemStore()
	claims := 0
	for i := 0; i < 2000; i++ {
		seed := uint64(i + 1)
		if i%13 == 12 {
			seed = uint64(i - 5) // an earlier record's key, another result
		}
		cfg := crashCfg(seed)
		cfg.Phases = []bench.PhaseSpec{{Live: 1 + int(seed%2), Ops: 100 + int(seed)}}
		rec := NewRecord(cfg, bench.TrialResult{Scenario: cfg.Scenario, Seed: seed, Ops: int64(i)})
		line, err := recJSON(rec)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i%7 == 6:
			line = ""
		case i%11 == 10:
			line = line[:len(line)/2]
		case i%17 == 16:
			line = claimLine(rec.Key, fmt.Sprintf("w%d", i), int64(i))
			claims++
		default:
			var back Record
			if err := json.Unmarshal([]byte(line), &back); err != nil {
				t.Fatal(err)
			}
			want.add(back)
		}
		file.WriteString(line + "\n")
	}
	dups := want.Len() - len(want.Keys())
	if want.Len() < 1400 || claims < 50 || dups < 50 {
		t.Fatalf("reference store holds %d records (%d under an earlier key), the file %d claims; the file is not the mix intended",
			want.Len(), dups, claims)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got := NewMemStore()
		if err := got.Load(strings.NewReader(file.String())); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Records(), want.Records()) {
			t.Errorf("GOMAXPROCS=%d: Records() differ from the serial decode", procs)
		}
		for _, key := range want.Keys() {
			if !reflect.DeepEqual(got.Get(key), want.Get(key)) {
				t.Errorf("GOMAXPROCS=%d: records under %s differ or changed order", procs, key)
			}
		}
	}
}

// TestStoreBatchAppendTornInLastLine: AppendAllIfAbsent puts a fleet
// completion's records in the file with one write — one line per record all
// the same, deduped per key against the store and within the batch. A process killed inside that write
// leaves whole lines and a torn last one, and such a file loads to exactly
// the complete lines before the tear, at any GOMAXPROCS: a batch longer than
// load's decode batch crosses its boundary.
func TestStoreBatchAppendTornInLastLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(crashRec(1)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Record{crashRec(1), crashRec(2), crashRec(2)}
	for seed := uint64(3); seed < 3+loadBatch; seed++ {
		batch = append(batch, crashRec(seed))
	}
	added, err := st.AppendAllIfAbsent(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]bool{false, true, false}, slices.Repeat([]bool{true}, loadBatch)...)
	if !slices.Equal(added, want) {
		t.Fatalf("added = %v, want the stored key and the repeat within the batch skipped", added)
	}
	if st.Len() != 2+loadBatch {
		t.Fatalf("indexed %d records, want %d", st.Len(), 2+loadBatch)
	}
	st.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(whole[len(before):]), "\n")
	lines = lines[:len(lines)-1] // SplitAfter's empty tail
	if len(lines) != 1+loadBatch {
		t.Fatalf("the batch wrote %d lines, want %d", len(lines), 1+loadBatch)
	}
	last := lines[len(lines)-1]

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, cut := range []int{1, len(last) / 2, len(last) - 2} {
			torn := filepath.Join(t.TempDir(), "torn.jsonl")
			if err := os.WriteFile(torn, whole[:len(whole)-len(last)+cut], 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := Open(torn)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d cut=%d: %v", procs, cut, err)
			}
			// Everything but the torn record: crashRec(1) and the batch's
			// 1+loadBatch fresh records less its last.
			if re.Len() != 1+loadBatch || re.Has(batch[len(batch)-1].Key) {
				t.Errorf("GOMAXPROCS=%d cut=%d: loaded %d records, want %d, the torn record absent",
					procs, cut, re.Len(), 1+loadBatch)
			}
			for _, rec := range batch[:len(batch)-1] {
				if len(re.Get(rec.Key)) != 1 {
					t.Errorf("GOMAXPROCS=%d cut=%d: key %s loaded %d times, want 1", procs, cut, rec.Key, len(re.Get(rec.Key)))
				}
			}
			re.Close()
		}
	}
}
