package smr

import (
	"testing"

	"repro/internal/simalloc"
	"repro/internal/timeline"
)

// zeroCostAlloc is a one-thread jemalloc with zero modeled costs whose cache
// never flushes, so what runs on top of it is host bookkeeping (stamping,
// queue management), not spin work.
func zeroCostAlloc() simalloc.Allocator {
	return simalloc.NewJEMalloc(simalloc.Config{
		Threads:        1,
		Cost:           simalloc.CostModel{ThreadsPerSocket: 1 << 30, Sockets: 1, RemoteFactor: 1},
		TCacheCap:      1 << 20,
		FlushFraction:  0.75,
		FillCount:      64,
		PageRunObjects: 64,
	})
}

// benchCore assembles a core over zeroCostAlloc for the freer benchmarks.
func benchCore(recorded, af bool) (*core, simalloc.Allocator) {
	alloc := zeroCostAlloc()
	cfg := DefaultConfig(alloc, 1)
	if recorded {
		cfg.Recorder = timeline.NewRecorder(1, 1<<20)
	}
	c := newCore("bench", cfg, af)
	return &c, alloc
}

// benchmarkBatchFreer measures the recorded-trial free path: freeBatch over
// a reused bag, with the allocator's own stamping included.
func benchmarkBatchFreer(b *testing.B, recorded bool) {
	f, alloc := benchCore(recorded, false)
	const k = 256
	batch := make([]*simalloc.Object, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range batch {
			batch[j] = alloc.Alloc(0, 64)
		}
		b.StartTimer()
		f.freeBatch(0, batch)
	}
	b.ReportMetric(float64(b.N)*k/b.Elapsed().Seconds(), "frees/s")
}

func BenchmarkBatchFreerUnrecorded(b *testing.B) { benchmarkBatchFreer(b, false) }
func BenchmarkBatchFreerRecorded(b *testing.B)   { benchmarkBatchFreer(b, true) }

// benchmarkAmortizedPump measures the per-operation drain: one queued free
// per pump at the paper's DrainRate of 1.
func benchmarkAmortizedPump(b *testing.B, recorded bool) {
	f, alloc := benchCore(recorded, true)
	const k = 4096
	batch := make([]*simalloc.Object, k)
	queued := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if queued == 0 {
			b.StopTimer()
			for j := range batch {
				batch[j] = alloc.Alloc(0, 64)
			}
			f.freeBatch(0, batch)
			queued = k
			b.StartTimer()
		}
		f.pump(0)
		queued--
	}
}

func BenchmarkAmortizedPumpUnrecorded(b *testing.B) { benchmarkAmortizedPump(b, false) }
func BenchmarkAmortizedPumpRecorded(b *testing.B)   { benchmarkAmortizedPump(b, true) }
