package ds

import (
	"math/rand"
	"testing"
)

// The ds layer's budget: what one ABtree operation costs the host on the
// paper's stack (jemalloc model × debra), one thread, 2^15 keys, half of
// them present. On the full stack the same layer is the repository
// benchmark's ds.* fields (ds.insert_ns_p50, ds.delete_ns_p50, ds.op_ns_p99).

const benchKeyRange = 1 << 15

func newBenchTree(b *testing.B) (Set, *rand.Rand) {
	b.Helper()
	set, _ := buildSet(b, "abtree", "debra")
	rng := rand.New(rand.NewSource(1))
	for set.Size() < benchKeyRange/2 {
		set.Insert(0, rng.Int63n(benchKeyRange))
	}
	return set, rng
}

var benchSink bool

// BenchmarkABTreeUpdate is the update workload's op mix: uniform keys,
// alternating insert and delete, about half of each succeeding.
func BenchmarkABTreeUpdate(b *testing.B) {
	set, rng := newBenchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := rng.Int63n(benchKeyRange)
		if i&1 == 0 {
			benchSink = set.Insert(0, key)
		} else {
			benchSink = set.Delete(0, key)
		}
	}
}

func BenchmarkABTreeContains(b *testing.B) {
	set, rng := newBenchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = set.Contains(0, rng.Int63n(benchKeyRange))
	}
}
