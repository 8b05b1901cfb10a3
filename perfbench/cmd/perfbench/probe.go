package main

import (
	"slices"
	"time"
)

// probe measures the host's speed between runs: dependent loads through
// a random single-cycle permutation of 32 MiB, so every load waits on
// memory. Memory latency is what drifts most on the shared host, and the
// simulator's run times drift with it. The probe runs no simulator code
// and runs while no worker does, so no change to the simulator can move
// it.
type probe struct{ next []uint32 }

// probeLoads is the number of dependent loads in one pass: about 50 ms on
// the reference host (ledger.RefProbeNS).
const probeLoads = 300_000

func newProbe() *probe {
	next := make([]uint32, 8<<20)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle: the result is one cycle through every slot.
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return &probe{next: next}
}

// probeSink keeps the loads from being optimised away.
var probeSink uint32

// measure returns the median time of three passes, in nanoseconds.
func (p *probe) measure() float64 {
	var ts [3]float64
	j := uint32(0)
	for k := range ts {
		t0 := time.Now()
		for range probeLoads {
			j = p.next[j]
		}
		ts[k] = float64(time.Since(t0).Nanoseconds())
	}
	probeSink += j
	slices.Sort(ts[:])
	return ts[1]
}
