package simalloc

import (
	"testing"
	"unsafe"
)

// TestPaddedTypesFillCacheLines is smr's test of the same name for this
// package's per-thread and per-bin structs: each is a whole number of
// 64-byte lines, so neighbours in a slice or array never share one.
func TestPaddedTypesFillCacheLines(t *testing.T) {
	for _, c := range []struct {
		name string
		size uintptr
	}{
		{"threadStats", unsafe.Sizeof(threadStats{})},
		{"jeBin", unsafe.Sizeof(jeBin{})},
		{"tcache", unsafe.Sizeof(tcache{})},
		{"jeFlushScratch", unsafe.Sizeof(jeFlushScratch{})},
		{"tcCentral", unsafe.Sizeof(tcCentral{})},
		{"miHeap", unsafe.Sizeof(miHeap{})},
	} {
		if c.size == 0 || c.size%64 != 0 {
			t.Errorf("%s is %d bytes; want a multiple of 64", c.name, c.size)
		}
	}
}
