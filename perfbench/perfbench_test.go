package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// firstCall serves the first call of a workload's pool for seed.
func firstCall(t *testing.T, name string, seed uint64) (call, *callResult) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	calls, err := w.setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := calls[0].serve(context.Background(), runtime.NumCPU(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := checkCall(res); n > 0 {
		t.Fatalf("served answers fail their check: %v", err)
	}
	return calls[0], res
}

func TestAnswerCheckCatchesCorruption(t *testing.T) {
	_, res := firstCall(t, "city-cran", 5)
	_, soft := firstCall(t, "ensemble-soft", 5)
	corrupt := map[string]func(a *frameAnswer){
		"energy":        func(a *frameAnswer) { a.energy += 0.5 },
		"spin-not-±1":   func(a *frameAnswer) { a.spins[0] = 0 },
		"short-answer":  func(a *frameAnswer) { a.spins = a.spins[:len(a.spins)-1] },
		"flipped-spin":  func(a *frameAnswer) { a.spins[0] = -a.spins[0] },
		"finish-before": func(a *frameAnswer) { a.finish = a.arrival - 1 },
	}
	for name, f := range corrupt {
		a := res.answers[0]
		a.spins = append([]int8(nil), a.spins...)
		f(&a)
		if name == "flipped-spin" && a.problem.Energy(a.spins) == a.energy {
			continue // a degenerate flip keeps the energy; nothing to catch
		}
		if err := checkAnswer(a); err == nil {
			t.Errorf("%s: corrupted answer passed the check", name)
		}
	}
	softCorrupt := map[string]func(a *frameAnswer){
		"nan-llr":    func(a *frameAnswer) { a.llrs[1] = math.NaN() },
		"inf-llr":    func(a *frameAnswer) { a.llrs[0] = math.Inf(1) },
		"short-llrs": func(a *frameAnswer) { a.llrs = a.llrs[:2] },
		"no-llrs":    func(a *frameAnswer) { a.llrs = nil },
	}
	for name, f := range softCorrupt {
		a := soft.answers[0]
		a.llrs = append([]float64(nil), a.llrs...)
		f(&a)
		if err := checkAnswer(a); err == nil {
			t.Errorf("%s: corrupted soft answer passed the check", name)
		}
	}
}

// corruptCall serves its inner call and then corrupts the first answer's
// energy, as a broken serving layer would.
type corruptCall struct{ call }

func (c corruptCall) serve(ctx context.Context, workers int, sub *subTimes) (*callResult, error) {
	res, err := c.call.serve(ctx, workers, sub)
	if err == nil {
		res.answers[0].energy -= 1
	}
	return res, err
}

func TestLoopCountsFailedAnswers(t *testing.T) {
	c, _ := firstCall(t, "city-cran", 6)
	lp := loop{o: options{workers: runtime.NumCPU()}, calls: []call{corruptCall{c}}}
	if err := lp.runUntil(context.Background(), time.Now(), 2, false, nil); err != nil {
		t.Fatal(err)
	}
	if lp.failed != 2 || lp.attempted <= lp.failed || len(lp.errs) == 0 {
		t.Fatalf("failed %d of %d attempted (errs %v), want one failure per call", lp.failed, lp.attempted, lp.errs)
	}
}

// evaluate serves the first n calls of a pool once (all of it when n ≤ 0)
// and returns the deterministic metrics and the per-call answer digests.
func evaluate(ctx context.Context, calls []call, n, workers int) (map[string]float64, []uint64, error) {
	if n <= 0 || n > len(calls) {
		n = len(calls)
	}
	var d deterministic
	for i := 0; i < n; i++ {
		res, err := calls[i].serve(ctx, workers, nil)
		if err != nil {
			return nil, nil, err
		}
		if failed, err := checkCall(res); failed > 0 {
			return nil, nil, fmt.Errorf("call %d: %d answers fail their check: %w", i, failed, err)
		}
		d.add(res)
	}
	return d.metricsMap(), d.digests, nil
}

func TestDeterministicMetrics(t *testing.T) {
	ctx := context.Background()
	const calls = 2
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			eval := func(seed uint64, workers int) (map[string]float64, []uint64) {
				pool, err := w.setup(seed)
				if err != nil {
					t.Fatal(err)
				}
				m, d, err := evaluate(ctx, pool, calls, workers)
				if err != nil {
					t.Fatal(err)
				}
				return m, d
			}
			m1, d1 := eval(11, 1)
			mN, dN := eval(11, runtime.NumCPU())
			mAgain, dAgain := eval(11, runtime.NumCPU())
			m2, d2 := eval(12, runtime.NumCPU())
			if !reflect.DeepEqual(m1, mN) || !reflect.DeepEqual(d1, dN) {
				t.Errorf("Workers=1 and Workers=%d disagree:\n%v\n%v", runtime.NumCPU(), m1, mN)
			}
			if !reflect.DeepEqual(mN, mAgain) || !reflect.DeepEqual(dN, dAgain) {
				t.Errorf("two runs of one seed disagree:\n%v\n%v", mN, mAgain)
			}
			if reflect.DeepEqual(d1, d2) {
				t.Errorf("a second seed gives the same answers")
			}
			for _, k := range []string{"sim_latency_us_p50", "sim_latency_us_p90"} {
				if mN[k] == m2[k] {
					t.Errorf("%s is %g on both seeds", k, mN[k])
				}
			}
		})
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{
				workload: w.name, seed: 3, seconds: 0.01, trace: trace,
				workers: runtime.NumCPU(), setups: 1, root: "..", pool: 2,
			}
			rep, err := run(context.Background(), o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			r := rep.result
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, r.Correct, r.Failed, r.Attempted)
			}
			want := endToEnd
			if trace {
				want = nil
				for _, pl := range perLayer {
					want = append(want, pl.name)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(r.Metrics), len(want))
			}
			for _, k := range want {
				m, ok := r.Metrics[k]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", w.name, trace, k, m)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, k)
				}
			}
		}
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, e := range spec.EndToEnd {
		if i < len(endToEnd) && (e.Name != endToEnd[i] || e.Unit != units[e.Name]) {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s, program %s/%s", i, e.Name, e.Unit, endToEnd[i], units[endToEnd[i]])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, p := range spec.PerLayer {
		if i < len(perLayer) && (p.Name != perLayer[i].name || p.Unit != perLayer[i].unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, program %s/%s", i, p.Name, p.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestProvenanceNamesTheSource(t *testing.T) {
	p := getProvenance(options{root: "..", workload: "city-cran", seed: 9})
	if p.Revision == "" || strings.Contains(p.Revision, "unknown") {
		t.Fatalf("revision %q", p.Revision)
	}
	if p.RevisionSource != "git" && p.RevisionSource != "source-sha256" {
		t.Fatalf("revision source %q", p.RevisionSource)
	}
	if h := sourceHash(".."); len(h) != 64 {
		t.Fatalf("source hash %q", h)
	}
	if p.GoVersion == "" || p.GOMAXPROCS < 1 || p.NumCPU < 1 || p.Seed != 9 {
		t.Fatalf("incomplete provenance %+v", p)
	}
}

func TestSlotMedians(t *testing.T) {
	t0 := time.Now()
	samples := []callSample{
		{slot: 0, wallMs: 5, cpuMs: 9, frames: 4, at: t0},
		{slot: 0, wallMs: 7, cpuMs: 8, frames: 4, at: t0},
		{slot: 1, wallMs: 3, cpuMs: 6, frames: 2, at: t0},
		{slot: 0, wallMs: 6, cpuMs: 10, frames: 4, at: t0},
	}
	med, served := slotMedians(samples, 2, nil)
	want := []callSample{{wallMs: 6, cpuMs: 9, frames: 4}, {wallMs: 3, cpuMs: 6, frames: 2}}
	if !reflect.DeepEqual(med, want) || !reflect.DeepEqual(served, []int{3, 1}) {
		t.Errorf("medians %+v served %v, want %+v [3 1]", med, served, want)
	}
	// A host running at half speed around the first serve halves its times.
	h := &hostClock{}
	for i := 0; i < 2*refNear; i++ {
		ref := refNominalMs
		if i < refNear {
			ref *= 2
		}
		h.samples = append(h.samples, refSample{at: t0.Add(time.Duration(i) * time.Second), cpuMs: ref})
	}
	slow := callSample{wallMs: 10, cpuMs: 16, at: t0.Add(time.Second)}
	fast := callSample{wallMs: 5, cpuMs: 8, at: t0.Add(time.Duration(2*refNear) * time.Second)}
	med, _ = slotMedians([]callSample{slow, fast}, 1, h)
	if med[0].wallMs != 5 || med[0].cpuMs != 8 {
		t.Errorf("scaled median %+v, want wall 5 cpu 8", med[0])
	}
	if f := h.slowdown(fast.at); f != 1 {
		t.Errorf("slowdown after the slow stretch %g, want 1", f)
	}
}
