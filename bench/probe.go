package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The probe is the benchmark's yardstick for the machine. The sandbox
// this benchmark runs on is shared: the same binary on the same inputs
// takes 10 ms for an op in one minute and 17 ms in the next, with no
// page faults, no extra collections and no steal time reported — a
// neighbour is using the memory system (README, "Why timings are
// probe-normalised"). An ALU loop does not see that; a walk over memory
// does, and run right beside the ops it moves with them. So every run
// interleaves this fixed walk with its ops and reports each timing as
//
//	measured × probeNominalMs / (probe time measured beside it)
//
// that is, in milliseconds of a machine on which the probe takes its
// nominal time. The probe is code of bench/ only: no engine change can
// move it, so a slower engine still shows, by exactly its factor.

const (
	probeTableBytes = 64 << 20 // well past the 4 MiB L2; the walk lives in L3 and DRAM
	probeReads      = 200_000
	// probeNominalMs is what the walk takes on the calibration machine
	// when it is quiet. Only ratios of metrics matter to a gate, so the
	// constant fixes the unit and nothing else.
	probeNominalMs = 1.4
)

// probeTable lives outside the Go heap (an anonymous mapping): 64 MiB of
// live heap would double the collector's pacing goal and the measured
// program would collect half as often as the real one.
var (
	probeTable []uint64
	probeSink  uint64
)

// probeInit maps and touches the table; every run calls it once before
// it measures anything.
func probeInit() error {
	if probeTable != nil {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, probeTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mapping the probe table: %w", err)
	}
	probeTable = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeTableBytes/8)
	for i := range probeTable {
		probeTable[i] = uint64(i) * 2654435761
	}
	return nil
}

// probeMs walks the table three times and times the third walk. Every
// walk visits the same probeReads addresses, which a linear congruential
// sequence spreads over the table (12.8 MB of cache lines), so the
// first two put them wherever the cache hierarchy will hold them and
// the third measures what reaching them costs right now. Measured after
// an sf 0.01 query, consecutive walks take 3.0, 2.5, 1.35 and 1.3 ms:
// the first two also measure how much of the table the preceding op
// evicted, which is the engine's doing and must not move the yardstick;
// from the third on the time is the same after a query and after a
// sleep. It allocates nothing.
func probeMs() float64 {
	probeWalk()
	probeWalk()
	return probeWalk()
}

func probeWalk() float64 {
	n := uint64(len(probeTable))
	x, s := uint64(12345), uint64(0)
	t0 := time.Now()
	for i := 0; i < probeReads; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s += probeTable[(x>>33)%n]
	}
	el := time.Since(t0)
	probeSink += s
	return ms(el)
}
