package results

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"

	"repro/internal/bench"
)

// Record is one persisted trial: the content-address keys, the normalized
// configuration that produced it (self-describing — the record alone is
// enough to re-execute the trial), and the measured result. Records are
// stored one per line as JSON (JSONL), so stores append cheaply, survive
// interruption (a torn final line is skipped on load), and diff/merge with
// line tools.
type Record struct {
	// Key is the TrialKey (KeyOf): config + seed, the cache address.
	Key string `json:"key"`
	// Group is the GroupKey (GroupOf): config with seed zeroed, the
	// aggregation address.
	Group string `json:"group"`
	// Schema is the SchemaVersion the record was written under.
	Schema int `json:"schema"`
	// Seed is the exact per-thread RNG seed the trial ran with (duplicated
	// from Config for greppability).
	Seed uint64 `json:"seed"`
	// Config is the normalized workload configuration.
	Config bench.WorkloadConfig `json:"config"`
	// Trial is the measured result (timeline recorder excluded). For a
	// quarantined record it is partial: identification fields plus whatever
	// the aborted trial could still report.
	Trial bench.TrialResult `json:"trial"`
	// ElapsedNanos is the trial's measured total wall time, duplicated from
	// Trial.ElapsedNanos for greppability (like Seed). Purely a measurement:
	// keys hash only the config, so two records of one trial that differ in
	// elapsed time share a TrialKey. The grid's cost model reads it to
	// schedule repeat/resume sweeps by measured cost. Zero on records that
	// predate the field.
	ElapsedNanos int64 `json:"elapsed_ns,omitempty"`
	// Quarantined marks a trial that failed permanently (watchdog abort
	// after retries, panic, or error). Quarantine records are cache entries
	// like any other — a resumed sweep skips the key instead of re-wedging —
	// but they are excluded from Summaries and counted separately by
	// Compare.
	Quarantined bool `json:"quarantined,omitempty"`
	// Error is the failure reason of a quarantined record.
	Error string `json:"error,omitempty"`

	// Kind is set only on lines an older build appended as a coordination
	// journal (lease claims). Such a line is no trial: load drops it, so it
	// can never satisfy a cache lookup and make resume skip a trial that
	// never ran. Nothing writes it any more.
	Kind string `json:"kind,omitempty"`
	// Worker names the fleet worker that ran a trial completed over the
	// fleet — audit only; the Trial's own provenance fields are the
	// canonical source.
	Worker string `json:"worker,omitempty"`
}

// NewRecord builds the Record for an executed trial. The configuration is
// normalized before storage; the trial's Recorder (if any) is dropped —
// recorded trials should not be persisted as cache entries, since replaying
// them from the store could not reproduce the timeline.
func NewRecord(cfg bench.WorkloadConfig, tr bench.TrialResult) Record {
	n := Normalize(cfg)
	tr.Recorder = nil
	return Record{
		Key:          KeyOf(cfg),
		Group:        GroupOf(cfg),
		Schema:       SchemaVersion,
		Seed:         n.Seed,
		Config:       n,
		Trial:        tr,
		ElapsedNanos: tr.ElapsedNanos,
	}
}

// NewQuarantine builds the quarantine Record for a trial that failed
// permanently. tr may be the partial result an aborted trial returned (its
// Error field is filled in if empty); err supplies the reason.
func NewQuarantine(cfg bench.WorkloadConfig, tr bench.TrialResult, err error) Record {
	rec := NewRecord(cfg, tr)
	rec.Quarantined = true
	if err != nil {
		rec.Error = err.Error()
	} else if tr.Error != "" {
		rec.Error = tr.Error
	} else {
		rec.Error = "unknown failure"
	}
	if rec.Trial.Error == "" {
		rec.Trial.Error = rec.Error
	}
	return rec
}

// Store holds trial records indexed by TrialKey, optionally backed by a
// JSONL file that every Append flushes to. All methods are safe for
// concurrent use (the grid runner appends from worker goroutines).
type Store struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	recs  []Record
	byKey map[string][]int
	batch bytes.Buffer // AppendAllIfAbsent's lines; kept, so a chunk's 85 KB is grown to once
}

// NewMemStore creates an unbacked in-memory store.
func NewMemStore() *Store {
	return &Store{byKey: map[string][]int{}}
}

// Open loads the JSONL store at path (which may not exist yet) and keeps it
// open for appending. Unparsable lines — e.g. a final line torn by an
// interrupted run — are skipped, so a store is always resumable. The file
// is opened O_APPEND so each record's single write lands atomically at the
// true end even when two processes share the store.
func Open(path string) (*Store, error) {
	s := NewMemStore()
	s.path = path
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("results: open store: %w", err)
	}
	if err := s.load(f); err != nil {
		f.Close()
		return nil, err
	}
	s.f = f
	return s, nil
}

// Load reads JSONL records from r into the store (in addition to whatever
// it already holds). Unparsable lines are skipped.
func (s *Store) Load(r io.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.load(r)
}

// loadBatch is how many lines load decodes at a time: enough that a round's
// JSON work (~30 µs a record) dwarfs starting its goroutines, small enough
// that the scratch — the lines and their decoded records — stays near a
// hundred kilobytes.
const loadBatch = 64

func (s *Store) load(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	// Lines are scanned serially and indexed in file order; only the JSON
	// decoding between the two, which is most of a load's time, fans out.
	var (
		buf  []byte // the batch's lines, back to back
		ends []int  // ends[i] is where line i stops in buf
		recs = make([]Record, loadBatch)
		ok   = make([]bool, loadBatch)
	)
	flush := func() {
		decodeLines(buf, ends, recs, ok)
		for i := range ends {
			if ok[i] {
				s.add(recs[i])
			}
		}
		buf, ends = buf[:0], ends[:0]
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		buf = append(buf, line...)
		ends = append(ends, len(buf))
		if len(ends) == loadBatch {
			flush()
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return fmt.Errorf("results: reading store: %w", err)
	}
	return nil
}

// decodeLines unmarshals line i of buf into recs[i] on up to GOMAXPROCS
// goroutines, each taking a contiguous share. ok[i] is false for a line that
// does not parse — torn or foreign — which the caller skips, so resume
// always works.
func decodeLines(buf []byte, ends []int, recs []Record, ok []bool) {
	decode := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			recs[i] = Record{} // Unmarshal merges into what is already there
			ok[i] = json.Unmarshal(buf[start:ends[i]], &recs[i]) == nil
		}
	}
	n := len(ends)
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		decode(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			decode(lo, hi)
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
}

// add indexes a record; caller holds mu. A line with Kind set is an old
// build's lease claim, not a trial, and is dropped.
func (s *Store) add(rec Record) {
	if rec.Kind != "" {
		return
	}
	s.byKey[rec.Key] = append(s.byKey[rec.Key], len(s.recs))
	s.recs = append(s.recs, rec)
}

// appendLocked writes and indexes one record; caller holds mu.
func (s *Store) appendLocked(rec Record) error {
	if s.f != nil {
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("results: encoding record: %w", err)
		}
		if _, err := s.f.Write(append(b, '\n')); err != nil {
			return fmt.Errorf("results: appending record: %w", err)
		}
	}
	s.add(rec)
	return nil
}

// Append adds a record to the store and, when file-backed, flushes it as
// one JSONL line before returning, so an interrupted sweep keeps every
// completed trial. The backing file is opened O_APPEND and each record is
// one write(2), so two processes appending to the same path interleave
// whole records, never torn ones.
func (s *Store) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(rec)
}

// AppendIfAbsent appends rec only when its TrialKey is not already present,
// reporting whether it was added. This is the fleet coordinator's
// merge-dedupe point: two workers racing an expired lease both complete the
// same trial, content addressing makes their records interchangeable, and
// the check-and-append under one lock guarantees exactly one lands in the
// store.
func (s *Store) AppendIfAbsent(rec Record) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byKey[rec.Key]; dup {
		return false, nil
	}
	if err := s.appendLocked(rec); err != nil {
		return false, err
	}
	return true, nil
}

// AppendAllIfAbsent is AppendIfAbsent for a batch that goes to the file as
// one write — the k records of one fleet completion. It is still one JSONL
// line per record, and each record is appended only when its TrialKey is
// neither in the store nor earlier in recs; added[i] reports which. A process killed inside the
// write leaves whole lines and at most one torn one, which load skips like
// any other. On an error nothing is indexed.
func (s *Store) AppendAllIfAbsent(recs []Record) (added []bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	added = make([]bool, len(recs))
	buf := &s.batch
	buf.Reset()
	enc := json.NewEncoder(buf) // Marshal's bytes plus the newline, without Marshal's copy
	for i := range recs {
		rec := &recs[i]
		_, dup := s.byKey[rec.Key]
		for j := 0; j < i && !dup; j++ {
			dup = added[j] && recs[j].Key == rec.Key
		}
		if dup {
			continue
		}
		added[i] = true
		if s.f != nil {
			if err := enc.Encode(rec); err != nil {
				return nil, fmt.Errorf("results: encoding record: %w", err)
			}
		}
	}
	if buf.Len() > 0 {
		if _, err := s.f.Write(buf.Bytes()); err != nil {
			return nil, fmt.Errorf("results: appending records: %w", err)
		}
	}
	for i := range recs {
		if added[i] {
			s.add(recs[i])
		}
	}
	return added, nil
}

// Merge appends every record from other whose TrialKey is not yet present
// (content addressing makes key-equality mean trial-identity) and reports
// how many were added. The check-and-append runs under one lock, so
// concurrent Merge/Append calls cannot double-insert a key.
func (s *Store) Merge(other *Store) (int, error) {
	recs := other.Records() // other's lock first, before taking s.mu
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	for _, rec := range recs {
		if _, dup := s.byKey[rec.Key]; dup {
			continue
		}
		if err := s.appendLocked(rec); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// Has reports whether any record exists under the TrialKey.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey[key]) > 0
}

// Get returns the records stored under the TrialKey.
func (s *Store) Get(key string) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.byKey[key]
	out := make([]Record, len(idx))
	for i, j := range idx {
		out[i] = s.recs[j]
	}
	return out
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Keys returns the distinct TrialKeys in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Records returns a copy of all trial records in append order.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// Query returns the records matching pred, in append order.
func (s *Store) Query(pred func(Record) bool) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, rec := range s.recs {
		if pred(rec) {
			out = append(out, rec)
		}
	}
	return out
}

// Dump writes the store as JSONL.
func (s *Store) Dump(w io.Writer) error {
	for _, rec := range s.Records() {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Path returns the backing file path ("" for in-memory stores).
func (s *Store) Path() string { return s.path }

// Close releases the backing file, if any. The in-memory index stays
// usable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
