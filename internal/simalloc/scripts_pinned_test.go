package simalloc_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestModelScriptsPinned runs runScript (four tids, remote frees,
// FlushThreadCache) on every model and on the pool over jemalloc, and holds
// each one's object-ID sequence and modelled counts to
// testdata/model-scripts.golden. The golden has no -update: a refactor of a
// model must leave its object flow exactly where it was.
func TestModelScriptsPinned(t *testing.T) {
	allocs := scriptAllocators(t, scriptConfig())
	names := make([]string, 0, len(allocs))
	for name := range allocs {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintln(&b, "# model ids_fnv64a allocs frees remote_frees flushes fresh_pages mapped_bytes peak_bytes live_bytes")
	for _, name := range names {
		a := allocs[name]
		ids, _ := runScript(a, nil)
		h := fnv.New64a()
		for _, id := range ids {
			fmt.Fprintf(h, "%d,", id)
		}
		st := a.Stats()
		fmt.Fprintf(&b, "%s %016x %d %d %d %d %d %d %d %d\n", name, h.Sum64(),
			st.Allocs, st.Frees, st.RemoteFrees, st.Flushes, st.FreshPages,
			st.MappedBytes, st.PeakBytes, a.LiveBytes())
	}

	want, err := os.ReadFile("testdata/model-scripts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("modelled script drifted from testdata/model-scripts.golden\n got:\n%s\nwant:\n%s", got, want)
	}
}
