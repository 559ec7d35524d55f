package main

import (
	"sync"
	"time"
)

// The host probe times a fixed kernel that owes nothing to the repository:
// two goroutines, one per CPU, each evaluating its own frozen random network
// of two-input gates on 64-bit words, level by level, like a small fault
// simulator. On a shared host co-tenants slow the programs in the VM by up
// to a quarter from one minute to the next, and the probe slows with them. Every
// end-to-end time is multiplied by probeRefMS over the probe time around it:
// a batch op by the probes run just before and after it, a service job by
// those on either side of its segment of the service's loop, set-up by the
// median of the run's probes. Runs made minutes apart then compare; README.md,
// "Noise", gives the spreads with and without scaling.

// probeRefMS sets the unit of the scaled times: they read as if the probe
// had taken probeRefMS, about its time on an idle 2-vCPU VM. It and the
// kernel must never change, or scaled times stop comparing across commits.
const probeRefMS = 24.0

// probeRuns is how many probes run before set-up.
const probeRuns = 3

const (
	probeGates  = 60000
	probeRounds = 40
)

// probeNet is one frozen gate network: gate i reads gates a[i] and b[i],
// both below i, and applies op[i].
type probeNet struct {
	a, b []int32
	op   []uint8
}

var probeNets = sync.OnceValue(func() [2]probeNet {
	return [2]probeNet{newProbeNet(1), newProbeNet(2)}
})

// newProbeNet builds a network from a private SplitMix64 stream, so the
// kernel stays the same whatever the repository's generators do.
func newProbeNet(seed uint64) probeNet {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	n := probeNet{make([]int32, probeGates), make([]int32, probeGates), make([]uint8, probeGates)}
	for i := 64; i < probeGates; i++ {
		n.a[i] = int32(next() % uint64(i))
		n.b[i] = int32(i - 1 - int(next()%64))
		n.op[i] = uint8(next() % 4)
	}
	return n
}

func (n probeNet) eval() uint64 {
	v := make([]uint64, probeGates)
	var acc uint64
	for r := uint64(0); r < probeRounds; r++ {
		for i := range 64 {
			v[i] = (r*64 + uint64(i)) * 0x9e3779b97f4a7c15
		}
		for i := 64; i < probeGates; i++ {
			x, y := v[n.a[i]], v[n.b[i]]
			switch n.op[i] {
			case 0:
				v[i] = x & y
			case 1:
				v[i] = ^(x | y)
			case 2:
				v[i] = x ^ y
			default:
				v[i] = ^(x & y)
			}
		}
		acc += v[probeGates-1]
	}
	return acc
}

// probeSink keeps the kernel's result alive.
var probeSink [2]uint64

// probeHost runs the kernel n times and returns each run's time in ms.
func probeHost(n int) []float64 {
	nets := probeNets()
	out := make([]float64, n)
	for k := range out {
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := range nets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				probeSink[i] = nets[i].eval()
			}()
		}
		wg.Wait()
		out[k] = time.Since(t0).Seconds() * 1e3
	}
	return out
}
