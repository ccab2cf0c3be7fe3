package ds

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// span is a run of bytes inside one host object.
type span struct {
	name      string
	off, size uintptr
}

// sharesLine reports whether a and b can fall in the same 64-byte cache line.
// The object's own alignment is not assumed: Go serves a pointerful object
// over 512 bytes from a 64-byte-multiple size class with an 8-byte malloc
// header in front, and smaller ones from classes that are not multiples of
// 64, so every 8-byte alignment is tried.
func sharesLine(a, b span) bool {
	for base := uintptr(0); base < 64; base += 8 {
		aLo, aHi := (base+a.off)/64, (base+a.off+a.size-1)/64
		bLo, bHi := (base+b.off)/64, (base+b.off+b.size-1)/64
		if aLo <= bHi && bLo <= aHi {
			return true
		}
	}
	return false
}

// tierSpans returns what a traversal reads of an internal node of one
// capacity before it indexes a child slot, and what updates under it write.
func tierSpans[R, C any]() (read, written []span) {
	var x abTier[R, C]
	read = []span{
		{"abInternal", unsafe.Offsetof(x.abInternal), unsafe.Sizeof(x.abInternal)},
		{"routeArr", unsafe.Offsetof(x.routeArr), unsafe.Sizeof(x.routeArr)},
	}
	written = []span{
		{"slotArr", unsafe.Offsetof(x.slotArr), unsafe.Sizeof(x.slotArr)},
		{"lockHere", unsafe.Offsetof(x.lockHere), unsafe.Sizeof(x.lockHere)},
	}
	return read, written
}

// TestHotFieldsDoNotShareLines pins the rule the internal node's field order
// exists for: what every update under a node writes (its lock, its retired
// flag, its child slots) shares no cache line with what a traversal reads on
// the way to a child slot (the header and the routing keys). A size check
// cannot see this; a field moved next to the wrong neighbour shows up here.
func TestHotFieldsDoNotShareLines(t *testing.T) {
	type slot = atomic.Pointer[abNode]
	for _, c := range []struct {
		typ   string
		spans func() (read, written []span)
	}{
		{"abTier[16]", tierSpans[[15]int64, [16]slot]},
		{"abTier[32]", tierSpans[[31]int64, [32]slot]},
		{"abTier[64]", tierSpans[[abInternalCap - 1]int64, [abInternalCap]slot]},
	} {
		read, written := c.spans()
		for _, w := range written {
			for _, r := range read {
				if sharesLine(w, r) {
					t.Errorf("%s.%s [%d,%d) can share a cache line with %s.%s [%d,%d)",
						c.typ, w.name, w.off, w.off+w.size, c.typ, r.name, r.off, r.off+r.size)
				}
			}
		}
	}
}
