package ds

import (
	"math/rand"
	"testing"
)

// The ds layer's budget: what one ABtree operation costs the host on the
// paper's stack (jemalloc model × debra), one thread, 2^15 keys, half of
// them present. On the full stack the same layer is the repository
// benchmark's ds.* fields (ds.insert_ns_p50, ds.delete_ns_p50, ds.op_ns_p99).
// BenchmarkContainsHP is the same read on each tree under hazard pointers,
// where the per-node publication is what the op pays for; on the full stack
// that is read_hazard's ds.contains_ns_p50.

const benchKeyRange = 1 << 15

func newBenchSet(b *testing.B, dsName, recName string) (Set, *rand.Rand) {
	b.Helper()
	set, _ := buildSet(b, dsName, recName)
	rng := rand.New(rand.NewSource(1))
	for set.Size() < benchKeyRange/2 {
		set.Insert(0, rng.Int63n(benchKeyRange))
	}
	return set, rng
}

var benchSink bool

// BenchmarkABTreeUpdate is the update workload's op mix: uniform keys,
// alternating insert and delete, about half of each succeeding, with a
// batch edge (Set.Quiesce) every 64 ops as the harness's workers make.
func BenchmarkABTreeUpdate(b *testing.B) {
	set, rng := newBenchSet(b, "abtree", "debra")
	set.Quiesce(0)
	defer set.Park(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&63 == 63 {
			set.Quiesce(0)
		}
		key := rng.Int63n(benchKeyRange)
		if i&1 == 0 {
			benchSink = set.Insert(0, key)
		} else {
			benchSink = set.Delete(0, key)
		}
	}
}

func BenchmarkABTreeContains(b *testing.B) {
	set, rng := newBenchSet(b, "abtree", "debra")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = set.Contains(0, rng.Int63n(benchKeyRange))
	}
}

func BenchmarkContainsHP(b *testing.B) {
	for _, dsName := range Names() {
		b.Run(dsName, func(b *testing.B) {
			set, rng := newBenchSet(b, dsName, "hp")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = set.Contains(0, rng.Int63n(benchKeyRange))
			}
		})
	}
}
