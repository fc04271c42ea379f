package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark runs on shared hosts whose CPU speed drifts by tens of
// percent over tens of seconds (other tenants on the same cores, clock
// changes): on a 2-vCPU Xeon VM the same binary's uplink-16qam CPU per
// frame moved between 24 and 33 ms within four minutes, while its ratio
// to the reference below stayed within ±1.2%. A fixed CPU-bound
// reference loop that calls nothing in the repository is timed every
// refEvery through the run. Every end-to-end time metric is divided by
// the host slowdown at its moment: the median reference CPU of the
// refNear nearest samples over refNominalMs. The metrics then read as
// times on a host where the reference takes refNominalMs, and a change
// to the program moves them while a change of host speed does not.
const (
	refNominalMs = 4.0
	refEvery     = 200 * time.Millisecond
	refNear      = 9
)

// refSample is one timed run of the reference loop.
type refSample struct {
	at    time.Time
	cpuMs float64
}

// hostClock times the reference loop and answers the host slowdown at
// any moment of the run.
type hostClock struct {
	vals    []float64
	keys    []int
	samples []refSample
	sink    float64
}

func newHostClock() *hostClock {
	h := &hostClock{vals: make([]float64, 4096), keys: make([]int, 256)}
	for i := range h.vals {
		h.vals[i] = float64(i) * 1e-3
	}
	return h
}

// tick times the reference loop once refEvery has passed since the last
// sample. A nil clock takes no samples.
func (h *hostClock) tick() {
	if h == nil {
		return
	}
	if n := len(h.samples); n > 0 && time.Since(h.samples[n-1].at) < refEvery {
		return
	}
	at, c0 := time.Now(), cpuTime()
	h.sink += refWork(h.vals, h.keys)
	h.samples = append(h.samples, refSample{at: at, cpuMs: ms(cpuTime() - c0)})
}

// refWork is the reference loop: transcendental float work over a small
// array and an integer sort, about 4 ms of CPU on a 2-vCPU Xeon.
func refWork(vals []float64, keys []int) float64 {
	x := 0.0
	for r := 0; r < 40; r++ {
		for _, v := range vals {
			x += math.Sin(v+x*1e-9) * math.Exp(-v)
		}
		for i := range keys {
			keys[i] = (i*7919 + r) % len(keys)
		}
		sort.Ints(keys)
		x += float64(keys[r%len(keys)])
	}
	return x
}

// slowdown is the host's slowdown at t: the median reference CPU of the
// refNear samples nearest t, over refNominalMs. It is 1 without samples.
func (h *hostClock) slowdown(t time.Time) float64 {
	if h == nil || len(h.samples) == 0 {
		return 1
	}
	n := len(h.samples)
	i := sort.Search(n, func(i int) bool { return !h.samples[i].at.Before(t) })
	hi := min(n, max(i-refNear/2, 0)+refNear)
	lo := max(0, hi-refNear)
	xs := make([]float64, 0, hi-lo)
	for _, s := range h.samples[lo:hi] {
		xs = append(xs, s.cpuMs)
	}
	return quantile(xs, 0.5) / refNominalMs
}

// medianMs is the median reference CPU over the whole run.
func (h *hostClock) medianMs() float64 {
	xs := make([]float64, len(h.samples))
	for i, s := range h.samples {
		xs[i] = s.cpuMs
	}
	return quantile(xs, 0.5)
}
