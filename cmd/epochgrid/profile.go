package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"

	"repro/internal/bench"
)

// startProfiles arms -cpuprofile / -memprofile and returns the function that
// finishes them, to be deferred so they are flushed on every exit path.
// Profiles capture the measured work, not the setup: capture starts only after
// the first trial's prefill completes (bench.OnFirstPrefillDone), so a
// single-trial profiling run covers exactly the measured window. CPU capture
// simply starts late; allocation sampling is off until the same point, so the
// heap profile excludes the prefill's churn too.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	if cpuPath == "" && memPath == "" {
		return func() {}, nil
	}
	var (
		prefillFired, cpuStarted atomic.Bool
		cpuFile                  *os.File
	)
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	memRate := runtime.MemProfileRate
	if memPath != "" {
		runtime.MemProfileRate = 0 // no sampling until the window opens
	}
	bench.OnFirstPrefillDone(func() {
		prefillFired.Store(true)
		if cpuFile != nil {
			if err := pprof.StartCPUProfile(cpuFile); err != nil {
				fmt.Fprintf(os.Stderr, "epochgrid: cpuprofile: %v\n", err)
			} else {
				cpuStarted.Store(true)
			}
		}
		// Heap sampling resumes regardless of the CPU profile's fate.
		runtime.MemProfileRate = memRate
	})
	return func() {
		switch {
		case cpuFile == nil:
		case cpuStarted.Load():
			pprof.StopCPUProfile()
			cpuFile.Close()
		default:
			// Capture never started (every trial was a store hit, the run failed
			// first, or StartCPUProfile did): an empty file would only confuse
			// `go tool pprof`, so remove it and say why.
			cpuFile.Close()
			os.Remove(cpuPath)
			why := "capture failed to start"
			if !prefillFired.Load() {
				why = "no trial ran a prefill, nothing captured"
			}
			fmt.Fprintf(os.Stderr, "epochgrid: cpuprofile: %s; removed %s\n", why, cpuPath)
		}
		if memPath == "" {
			return
		}
		if !prefillFired.Load() {
			fmt.Fprintf(os.Stderr, "epochgrid: memprofile: no trial ran a prefill, nothing sampled; skipping %s\n", memPath)
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "epochgrid: memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "epochgrid: memprofile: %v\n", err)
		}
	}, nil
}
