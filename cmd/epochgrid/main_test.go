package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenStoreReportsOtherSchema: a store holding a schema-5 record beside a
// current one opens with both kept and one line on the warning stream; a
// store with nothing from another schema opens silently.
func TestOpenStoreReportsOtherSchema(t *testing.T) {
	raw, err := os.ReadFile("testdata/v5-and-v6.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var warn bytes.Buffer
	st, err := openStore(path, &warn)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 2 {
		t.Fatalf("store kept %d records, want 2", st.Len())
	}
	want := "epochgrid: 1 of 2 records were written under schema 5; they are kept but cannot match v6 keys\n"
	if warn.String() != want {
		t.Fatalf("warning = %q, want %q", warn.String(), want)
	}

	warn.Reset()
	fresh, err := openStore(filepath.Join(t.TempDir(), "fresh.jsonl"), &warn)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if warn.Len() != 0 {
		t.Fatalf("fresh store warned: %q", warn.String())
	}
}
