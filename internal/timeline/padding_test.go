package timeline

import (
	"testing"
	"unsafe"
)

// TestPaddedTypesFillCacheLines is smr's test of the same name for this
// package's per-thread structs: each is a whole number of 64-byte lines, so
// neighbours in a slice never share one.
func TestPaddedTypesFillCacheLines(t *testing.T) {
	for _, c := range []struct {
		name string
		size uintptr
	}{
		{"stage", unsafe.Sizeof(stage{})},
		{"threadBuf", unsafe.Sizeof(threadBuf{})},
	} {
		if c.size == 0 || c.size%64 != 0 {
			t.Errorf("%s is %d bytes; want a multiple of 64", c.name, c.size)
		}
	}
}
