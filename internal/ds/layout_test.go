package ds

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// goSizeClass returns the bytes Go's allocator hands out for a pointerful
// object of n bytes (n <= 2048): the runtime's small size classes, and the
// 8-byte malloc header objects over 512 bytes carry. TestABTreeUpdatePathAllocs
// checks the table against the runtime it runs on, through TotalAlloc.
func goSizeClass(n uintptr) uintptr {
	if n > 512 {
		n += 8
	}
	for _, c := range []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
		288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280, 1408, 1536, 1792, 2048} {
		if n <= c {
			return c
		}
	}
	panic("goSizeClass: not a small object")
}

// TestNodeSizeClasses pins every host node type on the Go size class it
// occupies today, so a stray field cannot silently bump one. A leaf tier of
// capacity c is the 40-byte head plus c keys; capacities 1, 3, ... 15 fill
// their class to the byte, and only the full leaf (1 in 2 000 in steady
// state) wastes any.
func TestNodeSizeClasses(t *testing.T) {
	type slot = atomic.Pointer[abNode]
	if got := unsafe.Sizeof(abNode{}); got != 40 {
		t.Errorf("abNode head is %d bytes, want 40", got)
	}
	for _, c := range []struct {
		typ              string
		got, size, class uintptr
	}{
		{"abLeaf[1]", unsafe.Sizeof(abLeaf[[1]int64]{}), 48, 48},
		{"abLeaf[3]", unsafe.Sizeof(abLeaf[[3]int64]{}), 64, 64},
		{"abLeaf[5]", unsafe.Sizeof(abLeaf[[5]int64]{}), 80, 80},
		{"abLeaf[7]", unsafe.Sizeof(abLeaf[[7]int64]{}), 96, 96},
		{"abLeaf[9]", unsafe.Sizeof(abLeaf[[9]int64]{}), 112, 112},
		{"abLeaf[11]", unsafe.Sizeof(abLeaf[[11]int64]{}), 128, 128},
		{"abLeaf[13]", unsafe.Sizeof(abLeaf[[13]int64]{}), 144, 144},
		{"abLeaf[15]", unsafe.Sizeof(abLeaf[[15]int64]{}), 160, 160},
		{"abLeaf[16]", unsafe.Sizeof(abLeaf[[abLeafCap]int64]{}), 168, 176},
		{"abTier[16]", unsafe.Sizeof(abTier[[15]int64, [16]slot]{}), 416, 416},
		{"abTier[32]", unsafe.Sizeof(abTier[[31]int64, [32]slot]{}), 672, 704},
		{"abTier[64]", unsafe.Sizeof(abTier[[abInternalCap - 1]int64, [abInternalCap]slot]{}), 1184, 1280},
		{"occNode", unsafe.Sizeof(occNode{}), 48, 48},
		{"dgNode", unsafe.Sizeof(dgNode{}), 64, 64},
	} {
		if c.got != c.size || goSizeClass(c.got) != c.class {
			t.Errorf("%s is %d bytes in the %d-byte class, want %d in %d", c.typ, c.got, goSizeClass(c.got), c.size, c.class)
		}
	}
}

// TestABLeafTiers pins what newNode builds for every key count: the smallest
// tier that holds the keys, with the keys inside the node's own allocation.
func TestABLeafTiers(t *testing.T) {
	set, _ := buildSet(t, "abtree", "none")
	tree := set.(*ABTree)
	for n := 0; n <= abLeafCap; n++ {
		leaf := tree.newNode(0, n)
		if len(leaf.keys) != n || cap(leaf.keys) != abLeafTier(n) {
			t.Errorf("newNode(%d): len %d cap %d, want cap %d", n, len(leaf.keys), cap(leaf.keys), abLeafTier(n))
		}
		if leaf.in != nil || leaf.obj == nil || leaf.obj.Size != ABTreeNodeBytes {
			t.Errorf("newNode(%d): not a leaf over a %d-byte simulated object", n, ABTreeNodeBytes)
		}
		// The tier is head + array, so keys that start where the head ends
		// lie in the node's own allocation.
		head := uintptr(unsafe.Pointer(leaf))
		if first := uintptr(unsafe.Pointer(unsafe.SliceData(leaf.keys))); first != head+unsafe.Sizeof(abNode{}) {
			t.Errorf("newNode(%d): keys at %#x are not the array behind the head at %#x", n, first, head)
		}
	}
}

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

// TestPaddedTypesFillCacheLines is smr's test of the same name for this
// package. sizeDelta is one line exactly. recThread, one thread's share of
// the host-node recycler, is a whole number of lines with the announcement
// other threads scan alone on the first, so thread i's bags and free lists
// never share a line with thread i+1's announcement; its layout is the same
// for every tree's node type.
func TestPaddedTypesFillCacheLines(t *testing.T) {
	const line = 64
	if size := unsafe.Sizeof(sizeDelta{}); size != line {
		t.Errorf("sizeDelta is %d bytes; want exactly %d", size, line)
	}
	var x recThread[*abNode]
	if size := unsafe.Sizeof(x); size == 0 || size%line != 0 {
		t.Errorf("recThread is %d bytes; want a multiple of %d", size, line)
	}
	if off := unsafe.Offsetof(x.epoch); off != line {
		t.Errorf("recThread's owner fields start at byte %d; want %d, after the announcement's line", off, line)
	}
}
