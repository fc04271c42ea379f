package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMs is cpuTime in ms when sub-step timing is on, else 0 (untraced
// calls skip the syscalls).
func cpuMs(sub *subTimes) float64 {
	if sub == nil {
		return 0
	}
	return ms(cpuTime())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the cumulative heap bytes allocated so far.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// callSample is one timed call.
type callSample struct {
	wallMs, cpuMs float64
	allocB        uint64
	frames        int
	slot          int       // pool slot
	at            time.Time // start
}

// timeCall runs one call and measures its wall time, CPU and allocation.
func timeCall(ctx context.Context, c call, workers int, sub *subTimes) (*callResult, callSample, error) {
	a0, c0, w0 := allocBytes(), cpuTime(), time.Now()
	res, err := c.serve(ctx, workers, sub)
	w1, c1, a1 := time.Now(), cpuTime(), allocBytes()
	s := callSample{wallMs: ms(w1.Sub(w0)), cpuMs: ms(c1 - c0), allocB: a1 - a0, at: w0}
	if res != nil {
		s.frames = len(res.answers)
	}
	return res, s, err
}

// digest hashes a call's answers; a repeated call must reproduce it.
func digest(res *callResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, a := range res.answers {
		for _, s := range a.spins {
			put(uint64(uint8(s)))
		}
		put(math.Float64bits(a.energy))
		put(math.Float64bits(a.finish))
		for _, l := range a.llrs {
			put(math.Float64bits(l))
		}
	}
	return h.Sum64()
}

// quantile is the nearest-rank-interpolated q-quantile of xs (sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// deterministic is every metric fixed by (workload, seed): the behaviour
// guard a speed-only change must leave byte-identical.
type deterministic struct {
	frames, served, shed, hits, bitErrs, bits int
	mlHits, llrErrs, llrBits                  int
	makespanUs                                float64
	latencies                                 []float64
	counts                                    counts
	digests                                   []uint64
}

func (d *deterministic) add(res *callResult) {
	d.digests = append(d.digests, digest(res))
	d.served += res.served
	d.makespanUs += res.makespan
	for _, a := range res.answers {
		d.frames++
		d.latencies = append(d.latencies, a.finish-a.arrival)
		if a.shed {
			d.shed++
		} else if !a.missed {
			d.hits++
		}
		for i, s := range a.spins {
			d.bits++
			if s != a.truth.tx[i] {
				d.bitErrs++
			}
		}
		if a.energy <= a.truth.ground+energyTol(a.truth.ground) {
			d.mlHits++
		}
		if a.soft {
			for i, l := range a.llrs {
				d.llrBits++
				if (l >= 0) != (a.truth.tx[i] > 0) {
					d.llrErrs++
				}
			}
		}
	}
	c := &d.counts
	rc := res.counts
	c.batches += rc.batches
	c.batchFrames += rc.batchFrames
	c.queueUs = append(c.queueUs, rc.queueUs...)
	c.retries += rc.retries
	for k, v := range rc.shed {
		if c.shed == nil {
			c.shed = map[string]int{}
		}
		c.shed[k] += v
	}
	c.classical += rc.classical
	c.outcomes += rc.outcomes
	c.admitted += rc.admitted
	c.routerShed += rc.routerShed
	c.prepHits += rc.prepHits
	c.prepMisses += rc.prepMisses
}

func energyTol(e float64) float64 { return 1e-9 * math.Max(1, math.Abs(e)) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metricsMap renders the deterministic metrics by name. shed_rate and ber
// sit next to the never-zero forms the end-to-end gate uses (served_rate,
// bit_accuracy).
func (d *deterministic) metricsMap() map[string]float64 {
	m := map[string]float64{
		"sim_fps":            float64(d.served) / (d.makespanUs / 1e6),
		"sim_latency_us_p50": quantile(d.latencies, 0.5),
		"sim_latency_us_p90": quantile(d.latencies, 0.9),
		"deadline_hit_rate":  ratio(d.hits, d.frames),
		"shed_rate":          ratio(d.shed, d.frames),
		"served_rate":        1 - ratio(d.shed, d.frames),
		"ber":                ratio(d.bitErrs, d.bits),
		"bit_accuracy":       1 - ratio(d.bitErrs, d.bits),
		"ml_hit_rate":        ratio(d.mlHits, d.frames),
	}
	if d.llrBits > 0 {
		m["llr_ber"] = ratio(d.llrErrs, d.llrBits)
	}
	c := &d.counts
	m["fleet.batch_size_mean"] = ratio(c.batchFrames, c.batches)
	m["fleet.queue_us_p90"] = quantile(c.queueUs, 0.9)
	m["fleet.retries"] = float64(c.retries)
	for _, r := range shedReasons {
		m["fleet.shed."+r] = float64(c.shed[r])
	}
	m["fleet.route_classical_frac"] = ratio(c.classical, c.outcomes)
	m["cran.admitted"] = float64(c.admitted)
	m["cran.router_shed"] = float64(c.routerShed)
	m["annealer.prep_hit_ratio"] = ratio(int(c.prepHits), int(c.prepHits+c.prepMisses))
	return m
}

// setupSeconds is the set-up time a run spends at least, so a short
// set-up is still the median of many.
const setupSeconds = 1.0

// setupTimes runs a workload's set-up at least n times and for at least
// setupSeconds (the budget is skipped when n is 1). It returns the median
// seconds scaled to the reference host speed, the median unscaled, and
// the last pool.
func setupTimes(w *workload, seed uint64, n int, h *hostClock) (float64, float64, []call, error) {
	var secs, raw []float64
	var at []time.Time
	var calls []call
	total := 0.0
	for i := 0; i < n || (n > 1 && total < setupSeconds); i++ {
		h.tick()
		runtime.GC()
		t0 := time.Now()
		cs, err := w.setup(seed)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		raw = append(raw, time.Since(t0).Seconds())
		at = append(at, t0)
		total += raw[i]
		calls = cs
	}
	for i, s := range raw {
		secs = append(secs, s/h.slowdown(at[i]))
	}
	return quantile(secs, 0.5), quantile(raw, 0.5), calls, nil
}
