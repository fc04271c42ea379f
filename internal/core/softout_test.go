package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// The detector's soft output is mimo.FuseLLRs over the surviving arms'
// reads (EnsembleOutcome.FusedLLRs). These tests pin the sample
// re-weighting it applies.

func TestSampleSoftOutputValidation(t *testing.T) {
	if _, err := mimo.FuseLLRs(nil, 1, 0); err == nil {
		t.Fatal("empty samples accepted")
	}
	s := [][]qubo.Sample{{{Spins: []int8{1}, Energy: 0}}}
	// β ≤ 0 selects the default: 1 for a zero-spread ensemble.
	def, err := mimo.FuseLLRs(s, 0, 0)
	if err != nil {
		t.Fatalf("zero beta: %v", err)
	}
	one, _ := mimo.FuseLLRs(s, 1, 0)
	if !reflect.DeepEqual(def, one) {
		t.Fatalf("zero beta gave %v, want the beta=1 output %v", def, one)
	}
	bad := [][]qubo.Sample{{{Spins: []int8{1}, Energy: 0}, {Spins: []int8{1, 1}, Energy: 0}}}
	if _, err := mimo.FuseLLRs(bad, 1, 0); err == nil {
		t.Fatal("inconsistent lengths accepted")
	}
}

func TestSampleSoftOutputUnanimousClamps(t *testing.T) {
	samples := [][]qubo.Sample{{
		{Spins: []int8{1, -1}, Energy: -3},
		{Spins: []int8{1, -1}, Energy: -2},
	}}
	llrs, err := mimo.FuseLLRs(samples, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if llrs[0] != 10 || llrs[1] != -10 {
		t.Fatalf("unanimous LLRs = %v, want ±10", llrs)
	}
}

// TestSampleSoftOutputWeighting: a low-energy sample dominates a
// high-energy disagreeing one, and more so at larger beta.
func TestSampleSoftOutputWeighting(t *testing.T) {
	samples := [][]qubo.Sample{{
		{Spins: []int8{1}, Energy: -5},  // good sample says +1
		{Spins: []int8{-1}, Energy: -1}, // bad sample says −1
	}}
	weak, _ := mimo.FuseLLRs(samples, 0.1, 100)
	strong, _ := mimo.FuseLLRs(samples, 2, 100)
	if weak[0] <= 0 || strong[0] <= 0 {
		t.Fatalf("LLR should favour the low-energy sample: %v %v", weak, strong)
	}
	if strong[0] <= weak[0] {
		t.Fatalf("larger beta should sharpen the LLR: %v vs %v", strong[0], weak[0])
	}
	// Exact value at beta=2: log(e^0) − log(e^{-2·4}) = 8.
	if math.Abs(strong[0]-8) > 1e-9 {
		t.Fatalf("strong LLR = %v, want 8", strong[0])
	}
}

// TestAutoBeta: the detector's default sharpness (Beta ≤ 0) is
// 4 / (E_max − E_min) over the pooled reads.
func TestAutoBeta(t *testing.T) {
	spread := [][]qubo.Sample{{
		{Spins: []int8{1}, Energy: 0},
		{Spins: []int8{-1}, Energy: 8},
	}}
	def, _ := mimo.FuseLLRs(spread, 0, 0)
	half, _ := mimo.FuseLLRs(spread, 0.5, 0)
	if !reflect.DeepEqual(def, half) {
		t.Fatalf("default beta gave %v, want the beta=0.5 output %v", def, half)
	}

	inst := testInstance(t, modulation.QAM16, 4, 73)
	out, err := (&Ensemble{NumReads: 60, Config: fastCfg()}).Solve(inst.Reduction, rng.New(75))
	if err != nil {
		t.Fatal(err)
	}
	samples := out.Arms[0].Samples
	min, max := samples[0].Energy, samples[0].Energy
	for _, s := range samples {
		min = math.Min(min, s.Energy)
		max = math.Max(max, s.Energy)
	}
	if max-min < 1e-9 {
		t.Fatal("degenerate ensemble; the default-beta check needs an energy spread")
	}
	want, err := mimo.FuseLLRs([][]qubo.Sample{samples}, 4/(max-min), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.FusedLLRs, want) {
		t.Fatalf("FusedLLRs %v, want the beta=4/spread output %v", out.FusedLLRs, want)
	}
}
