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

// span is a run of bytes inside one host object.
type span struct {
	name      string
	off, size uintptr
}

// sharesLine reports whether a and b can fall in the same 64-byte cache line
// when the object they belong to starts at any of the given offsets into a
// line.
func sharesLine(bases []uintptr, a, b span) bool {
	for _, base := range bases {
		aLo, aHi := (base+a.off)/64, (base+a.off+a.size-1)/64
		bLo, bHi := (base+b.off)/64, (base+b.off+b.size-1)/64
		if aLo <= bHi && bLo <= aHi {
			return true
		}
	}
	return false
}

var (
	// anyBase: a struct allocated on its own. Go serves a pointerful object
	// over 512 bytes from a 64-byte-multiple size class with an 8-byte malloc
	// header in front, and smaller ones from classes that are not multiples
	// of 64, so no alignment beyond 8 is assumed.
	anyBase = []uintptr{0, 8, 16, 24, 32, 40, 48, 56}
	// sliceBase: a slice of elements that are a multiple of 64 bytes comes
	// from a 64-byte-multiple class or whole pages, so it starts a line, or
	// sits 8 bytes in when it carries the malloc header.
	sliceBase = []uintptr{0, 8}
)

// TestHotFieldsDoNotShareLines pins what a size check cannot see: a word
// that many threads write must not share a cache line with a field that
// many threads read, and pad64 pads only after its value, so the field
// declared before one matters. For a per-thread slice element the
// neighbouring elements count too. Add a row when a type is audited.
func TestHotFieldsDoNotShareLines(t *testing.T) {
	var (
		e  env
		tk Token
		dt debraThread
		ec eraClock
	)
	word := unsafe.Sizeof(int64(0))
	for _, c := range []struct {
		typ     string
		written []span  // by many threads, or by the owner on every operation
		read    []span  // by many threads on every operation
		stride  uintptr // element size when the type is a slice element
	}{
		{
			typ: "env",
			written: []span{
				{"limboNow.v", unsafe.Offsetof(e.limboNow) + unsafe.Offsetof(e.limboNow.v), word},
				{"limboPeak.v", unsafe.Offsetof(e.limboPeak) + unsafe.Offsetof(e.limboPeak.v), word},
			},
			read: []span{
				{"alloc", unsafe.Offsetof(e.alloc), unsafe.Sizeof(e.alloc)},
				{"rec", unsafe.Offsetof(e.rec), unsafe.Sizeof(e.rec)},
				{"ctr", unsafe.Offsetof(e.ctr), unsafe.Sizeof(e.ctr)},
				{"reg", unsafe.Offsetof(e.reg), unsafe.Sizeof(e.reg)},
				{"epochs", unsafe.Offsetof(e.epochs), unsafe.Sizeof(e.epochs)},
			},
		},
		{
			typ: "Token",
			written: []span{
				{"holder.v", unsafe.Offsetof(tk.holder) + unsafe.Offsetof(tk.holder.v), word},
			},
			read: []span{
				{"f", unsafe.Offsetof(tk.f), unsafe.Sizeof(tk.f)},
				{"variant", unsafe.Offsetof(tk.variant), unsafe.Sizeof(tk.variant)},
				{"th", unsafe.Offsetof(tk.th), unsafe.Sizeof(tk.th)},
			},
		},
		{
			// Every retire, on any thread, writes retireN; every operation
			// reads era. The pads put a full line after each, so whatever a
			// scheme declares around its clock is clear of both.
			typ: "eraClock",
			written: []span{
				{"retireN.v", unsafe.Offsetof(ec.retireN) + unsafe.Offsetof(ec.retireN.v), word},
			},
			read: []span{
				{"freq", unsafe.Offsetof(ec.freq), unsafe.Sizeof(ec.freq)},
				{"era.v", unsafe.Offsetof(ec.era) + unsafe.Offsetof(ec.era.v), word},
			},
		},
		{
			// The owner writes its bags and counters on every operation;
			// the other threads' scans read announced.
			typ: "debraThread",
			written: []span{
				{"bags", unsafe.Offsetof(dt.bags), unsafe.Sizeof(dt.bags)},
				{"cur", unsafe.Offsetof(dt.cur), unsafe.Sizeof(dt.cur)},
				{"scanIdx", unsafe.Offsetof(dt.scanIdx), unsafe.Sizeof(dt.scanIdx)},
				{"opCount", unsafe.Offsetof(dt.opCount), unsafe.Sizeof(dt.opCount)},
			},
			read: []span{
				{"announced.v", unsafe.Offsetof(dt.announced) + unsafe.Offsetof(dt.announced.v), word},
			},
			stride: unsafe.Sizeof(dt),
		},
	} {
		for _, w := range c.written {
			for _, r := range c.read {
				// A slice element is also checked against the element after
				// it, both ways round.
				bases, wNext, rNext := anyBase, w, r
				if c.stride != 0 {
					bases = sliceBase
					wNext.off += c.stride
					rNext.off += c.stride
				}
				shared := sharesLine(bases, w, r) || sharesLine(bases, w, rNext) || sharesLine(bases, wNext, r)
				if shared {
					t.Errorf("%s.%s [%d,%d) can share a cache line with %s.%s [%d,%d)",
						c.typ, w.name, w.off, w.off+w.size, c.typ, r.name, r.off, r.off+r.size)
				}
			}
		}
	}
}
