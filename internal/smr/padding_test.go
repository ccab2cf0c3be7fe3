package smr

import (
	"testing"
	"unsafe"
)

// TestPaddedTypesFillCacheLines pins the sizes the padding fields exist
// for. A padded cell is exactly one 64-byte line, so element i of a slice of
// them never shares a line with element i+1 (thread 2's last hazard slot and
// thread 3's first, say); a per-thread struct is a whole number of lines for
// the same reason. A payload field added without adjusting the pad shows up
// here, not as a slowdown nobody can place. Add a type when it is audited.
func TestPaddedTypesFillCacheLines(t *testing.T) {
	const line = 64
	for _, c := range []struct {
		name  string
		size  uintptr
		exact bool // one line exactly, not a multiple
	}{
		{"pad64", unsafe.Sizeof(pad64{}), true},
		{"padPtr", unsafe.Sizeof(padPtr{}), true},
		{"threadCtr", unsafe.Sizeof(threadCtr{}), true},
		{"afQueue", unsafe.Sizeof(afQueue{}), false},
		{"poolThread", unsafe.Sizeof(poolThread{}), false},
		{"debraThread", unsafe.Sizeof(debraThread{}), false},
		{"qsbrThread", unsafe.Sizeof(qsbrThread{}), false},
		{"hpThread", unsafe.Sizeof(hpThread{}), false},
		{"heThread", unsafe.Sizeof(heThread{}), false},
		{"ibrThread", unsafe.Sizeof(ibrThread{}), false},
		{"nbrThread", unsafe.Sizeof(nbrThread{}), false},
		{"rcuThread", unsafe.Sizeof(rcuThread{}), false},
		{"tokenThread", unsafe.Sizeof(tokenThread{}), false},
	} {
		switch {
		case c.exact && c.size != line:
			t.Errorf("%s is %d bytes; want exactly %d", c.name, c.size, line)
		case c.size == 0 || c.size%line != 0:
			t.Errorf("%s is %d bytes; want a multiple of %d", c.name, c.size, line)
		}
	}
}
