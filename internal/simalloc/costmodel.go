package simalloc

// CostModel describes the machine the simulation pretends to run on. Costs
// are expressed in units of spin work (see spin.go); they stand in for the
// cache-miss and interconnect latencies a real allocator pays when touching
// remote metadata. The topology mirrors the paper's experimental systems:
// threads are grouped into sockets, and touching an arena or central-list
// bin homed on another socket costs a multiple of a local touch.
type CostModel struct {
	// Name identifies the preset (e.g. "intel192").
	Name string
	// ThreadsPerSocket groups simulated thread IDs into sockets:
	// socket(tid) = tid / ThreadsPerSocket.
	ThreadsPerSocket int
	// Sockets is the number of sockets in the modelled machine.
	Sockets int

	// LocalTouch is the work for touching allocator metadata homed on the
	// caller's socket (e.g. locking a local bin).
	LocalTouch int
	// RemoteFactor multiplies LocalTouch for metadata homed on another
	// socket.
	RemoteFactor int
	// PerObjectFree is the bookkeeping work to return one object to a bin
	// freelist (performed while holding the bin lock — this is what makes
	// large flushes hold locks for a long time).
	PerObjectFree int
	// PerObjectAlloc is the bookkeeping work to take one object from a bin.
	PerObjectAlloc int
	// FreshPage is the work to map a fresh page run from the OS when all
	// freelists are empty.
	FreshPage int
	// FreshObject is the first-touch work per object carved from a fresh
	// page run: the page fault plus the cache-cold access a recycled
	// object would not pay. This is why leaking memory (`none`) loses to
	// reclaimers that recycle through warm thread caches (Fig. 11a).
	FreshObject int
}

// Intel192 models the paper's main system: a four-socket Intel Xeon Platinum
// 8160 with 48 hyperthreads per socket (192 total).
func Intel192() CostModel {
	return CostModel{
		Name:             "intel192",
		ThreadsPerSocket: 48,
		Sockets:          4,
		LocalTouch:       100,
		RemoteFactor:     6,
		PerObjectFree:    48,
		PerObjectAlloc:   8,
		FreshPage:        1500,
		FreshObject:      400,
	}
}

// Intel144 models the appendix-E 4-socket 144-core Intel machine.
func Intel144() CostModel {
	cm := Intel192()
	cm.Name = "intel144"
	cm.ThreadsPerSocket = 36
	return cm
}

// AMD256 models the appendix-E 2-socket 256-core AMD machine. AMD chiplets
// make even intra-socket sharing non-uniform; we fold that into a higher
// local touch cost and a lower socket count.
func AMD256() CostModel {
	return CostModel{
		Name:             "amd256",
		ThreadsPerSocket: 128,
		Sockets:          2,
		LocalTouch:       140,
		RemoteFactor:     4,
		PerObjectFree:    48,
		PerObjectAlloc:   8,
		FreshPage:        1500,
		FreshObject:      400,
	}
}

// Uniform models a flat machine with no NUMA penalty; useful in tests and
// ablations isolating the contention effect from the locality effect.
func Uniform() CostModel {
	return CostModel{
		Name:             "uniform",
		ThreadsPerSocket: 1 << 30,
		Sockets:          1,
		LocalTouch:       100,
		RemoteFactor:     1,
		PerObjectFree:    48,
		PerObjectAlloc:   8,
		FreshPage:        1500,
		FreshObject:      400,
	}
}

// Suspended returns cm with every spin-unit cost zeroed and the topology
// (ThreadsPerSocket, Sockets, RemoteFactor) kept: an allocator running it
// homes arenas, numbers objects, fills caches and counts events exactly as
// under cm, and only the burn and the lock-hold reservations derived from
// it disappear. The harness runs it outside the measured window, where
// nothing reads how long an allocator call took.
func (cm CostModel) Suspended() CostModel {
	cm.LocalTouch, cm.PerObjectFree, cm.PerObjectAlloc = 0, 0, 0
	cm.FreshPage, cm.FreshObject = 0, 0
	return cm
}

// CostSwapper is implemented by allocators whose cost table can be replaced
// after construction: the three models, and wrappers that forward to one.
// It is deliberately not part of Allocator, so wrappers that only observe
// calls need not know about it.
type CostSwapper interface {
	// SwapCost installs cm and returns the table it replaced. cm must keep
	// the topology the allocator was built with (arena and central-list
	// homes are fixed at construction). Call it only while no thread is
	// inside the allocator: the table is read without synchronization.
	SwapCost(cm CostModel) (old CostModel)
}

// Socket returns the socket a simulated thread is pinned to, following the
// paper's pinning policy (fill a socket before spilling to the next).
func (cm *CostModel) Socket(tid int) int {
	if cm.ThreadsPerSocket <= 0 {
		return 0
	}
	s := tid / cm.ThreadsPerSocket
	if cm.Sockets > 0 {
		s %= cm.Sockets
	}
	return s
}

// TouchCost returns the spin work for thread tid touching metadata homed on
// homeSocket.
func (cm *CostModel) TouchCost(tid, homeSocket int) int {
	if cm.Socket(tid) == homeSocket {
		return cm.LocalTouch
	}
	return cm.LocalTouch * cm.RemoteFactor
}
