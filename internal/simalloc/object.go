// Package simalloc provides simulated memory allocators that reproduce the
// free-path cost structure of jemalloc, tcmalloc and mimalloc, as studied in
// "Are Your Epochs Too Epic? Batch Free Can Be Harmful" (PPoPP '24).
//
// The allocators do not manage real memory. They hand out *Object handles
// and account for the bytes a real allocator would have mapped. What they
// model faithfully is the locking discipline of the free path: per-thread
// caches that overflow into remote arena bins (jemalloc), a central free
// list (tcmalloc), or per-page sharded free lists (mimalloc). Batch frees
// overflow thread caches and trigger remote batch frees (the paper's RBF
// problem) with real mutex contention between goroutines.
package simalloc

import (
	"fmt"
	"sync/atomic"
)

// ObjectState tracks the lifecycle of a simulated object so tests can detect
// double frees and leaks.
type ObjectState int32

const (
	// StateFree means the object is in an allocator freelist or thread
	// cache. It is the zero value because fresh objects are born inside
	// freelists.
	StateFree ObjectState = iota
	// StateAllocated means the object is owned by the application.
	StateAllocated
)

// Object is a handle for one simulated allocation. The allocator that
// created an Object recycles it through its freelists; the id is stable for
// the Object's lifetime, spanning many allocate/free cycles.
type Object struct {
	// ID is unique within one allocator instance.
	ID uint64
	// Class is the size-class index (see sizeclass.go).
	Class uint8
	// Size is the rounded (size-class) size in bytes.
	Size int32
	// Arena is the index of the owning arena (jemalloc) or central list
	// (tcmalloc). Unused by mimalloc, which tracks ownership via Page.
	Arena int32
	// OwnerTID is the simulated thread that allocated the object most
	// recently. Used to decide whether a free is local or remote.
	OwnerTID int32
	// Page is the owning page for mimalloc-style allocators; nil otherwise.
	Page *Page
	// BirthEra is stamped by era-based reclaimers (HE/IBR/WFE) at
	// allocation time; RetireEra at retirement. The allocator does not
	// interpret these fields.
	BirthEra, RetireEra uint64

	state atomic.Int32
	// next links Objects inside intrusive freelists so the allocator models
	// avoid slice churn on their hot paths.
	next *Object
}

// State reports the current lifecycle state.
func (o *Object) State() ObjectState { return ObjectState(o.state.Load()) }

// markAllocated flips the object to the allocated state, panicking on a
// double allocation (an allocator bug, not a user error).
func (o *Object) markAllocated() {
	if !o.state.CompareAndSwap(int32(StateFree), int32(StateAllocated)) {
		panic(fmt.Sprintf("simalloc: object %d allocated twice", o.ID))
	}
}

// markFree flips the object to the free state, panicking on a double free.
func (o *Object) markFree() {
	if !o.state.CompareAndSwap(int32(StateAllocated), int32(StateFree)) {
		panic(fmt.Sprintf("simalloc: double free of object %d", o.ID))
	}
}

// objList is an intrusive singly-linked list of Objects. It is not
// goroutine-safe; every list is protected either by a bin mutex or by being
// thread-local.
type objList struct {
	head *Object
	n    int
}

func (l *objList) push(o *Object) {
	o.next = l.head
	l.head = o
	l.n++
}

func (l *objList) pop() *Object {
	o := l.head
	if o == nil {
		return nil
	}
	l.head = o.next
	o.next = nil
	l.n--
	return o
}

// pushAll splices src onto l and empties src.
func (l *objList) pushAll(src *objList) {
	if src.head == nil {
		return
	}
	tail := src.head
	for tail.next != nil {
		tail = tail.next
	}
	tail.next = l.head
	l.head = src.head
	l.n += src.n
	src.head = nil
	src.n = 0
}

func (l *objList) len() int { return l.n }

// slabObjects is how many Objects carveRun allocates at a time: 8 × 64 bytes
// is 512, the largest pointer-carrying allocation the Go runtime makes
// without a malloc header. One slab for a whole 64-object run would be
// 4096 + 8 header bytes and land in the 4864-byte class, 19 % more host
// memory than the objects it holds; at 512 a run costs exactly its objects'
// bytes in an eighth of the allocations (TestCarveRun measures both).
const slabObjects = 8

// carveRun maps one fresh page run of class for tid and carves it into
// dst, charging the modeled page and first-touch costs. IDs are consecutive
// and pushed in ascending order. arena or page records the owner for the
// models that track one.
func carveRun(cfg *Config, stats *statsArena, nextID *atomic.Uint64, tid int, class uint8, arena int32, page *Page, dst *objList) {
	n := cfg.PageRunObjects
	spinWork(tid, cfg.Cost.FreshPage)
	stats.perThread[tid].freshPages++
	size := ClassToSize(class)
	stats.addMapped(int64(size) * int64(n))
	id := nextID.Add(uint64(n)) - uint64(n)
	for carved := 0; carved < n; carved += slabObjects {
		slab := make([]Object, min(slabObjects, n-carved))
		for i := range slab {
			// First touch of cold memory: page-fault and cache-miss work a
			// recycled object would not pay.
			spinWork(tid, cfg.Cost.FreshObject)
			id++
			o := &slab[i]
			o.ID = id
			o.Class = class
			o.Size = size
			o.Arena = arena
			o.Page = page
			dst.push(o)
		}
	}
}
