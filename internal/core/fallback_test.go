package core

import (
	"testing"

	"repro/internal/annealer"
	"repro/internal/modulation"
	"repro/internal/rng"
)

func faultyCfg(fm annealer.FaultModel) AnnealConfig {
	cfg := fastCfg()
	cfg.Faults = fm
	return cfg
}

// TestHybridFallbackOnProgrammingFault: with FallbackOnFault set, a
// certain device fault degrades the hybrid to its classical half instead
// of erroring — and the answer is exactly the classical candidate.
func TestHybridFallbackOnProgrammingFault(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 3, 5)
	h := &Ensemble{NumReads: 20,
		Config:          faultyCfg(annealer.FaultModel{ProgrammingFailureRate: 1}),
		FallbackOnFault: true}
	out, err := h.Solve(inst.Reduction, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != AnswerClassicalFallback {
		t.Fatalf("source %v, want fallback", out.Source)
	}
	if out.Fault == nil {
		t.Fatal("fallback outcome does not record the fault")
	}
	if fe, ok := annealer.AsFault(out.Fault); !ok || fe.Kind != annealer.FaultProgramming {
		t.Fatalf("recorded fault %v is not a programming failure", out.Fault)
	}
	if out.Best.Energy != out.InitialEnergy {
		t.Fatal("fallback answer is not the classical candidate")
	}
	want := inst.Reduction.DecodeSpins(out.InitialState)
	for i := range want {
		if out.Symbols[i] != want[i] {
			t.Fatal("fallback symbols are not the decoded candidate")
		}
	}
	if len(out.Samples) != 0 {
		t.Fatal("fallback outcome claims anneal samples")
	}
	if !out.Source.Degraded() {
		t.Fatal("fallback source not marked degraded")
	}
}

// TestHybridFaultWithoutFallbackErrors: the same fault without the flag
// must surface as a typed error, not a silent answer.
func TestHybridFaultWithoutFallbackErrors(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 3, 5)
	h := &Ensemble{NumReads: 20, Config: faultyCfg(annealer.FaultModel{ProgrammingFailureRate: 1})}
	_, err := h.Solve(inst.Reduction, rng.New(9))
	if err == nil {
		t.Fatal("programming fault swallowed without FallbackOnFault")
	}
	if fe, ok := annealer.AsFault(err); !ok || fe.Kind != annealer.FaultProgramming {
		t.Fatalf("error %v is not a typed programming fault", err)
	}
}

// TestHybridCandidateWinsUnderStorms: when every read is storm-corrupted,
// the classical candidate beats the quantum samples and the outcome says
// so — the "never worse than classical" guarantee under degradation.
func TestHybridCandidateWinsUnderStorms(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 3, 5)
	h := &Ensemble{NumReads: 20,
		Config: faultyCfg(annealer.FaultModel{ChainBreakStormRate: 1, StormFlipFraction: 0.5})}
	out, err := h.Solve(inst.Reduction, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if out.FaultStats.ChainBreakStorms != 20 {
		t.Fatalf("storm stats %d, want 20", out.FaultStats.ChainBreakStorms)
	}
	if out.Best.Energy > out.InitialEnergy {
		t.Fatal("hybrid returned worse than its classical half")
	}
	if out.Source == AnswerQuantum && out.Best.Energy != inst.Reduction.Ising.Energy(out.Best.Spins) {
		t.Fatal("quantum answer energy inconsistent")
	}
}

// TestHybridFallbackTransparentWhenHealthy: FallbackOnFault must be a pure
// no-op on a fault-free run — bit-identical to the unflagged solver.
func TestHybridFallbackTransparentWhenHealthy(t *testing.T) {
	inst := testInstance(t, modulation.QAM16, 3, 5)
	plain, err := (&Ensemble{NumReads: 20, Config: fastCfg()}).Solve(inst.Reduction, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := (&Ensemble{NumReads: 20, Config: fastCfg(), FallbackOnFault: true}).Solve(inst.Reduction, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Best.Energy != guarded.Best.Energy || plain.Source != guarded.Source {
		t.Fatal("FallbackOnFault changed a healthy run")
	}
	for i := range plain.Samples {
		if plain.Samples[i].Energy != guarded.Samples[i].Energy {
			t.Fatalf("sample %d diverged", i)
		}
	}
	if guarded.Fault != nil || guarded.Source.Degraded() {
		t.Fatal("healthy run marked degraded")
	}
}

func TestAnswerSourceNames(t *testing.T) {
	if AnswerQuantum.String() != "quantum" ||
		AnswerClassicalCandidate.String() != "classical-candidate" ||
		AnswerClassicalFallback.String() != "classical-fallback" {
		t.Fatalf("answer source names wrong: %v %v %v",
			AnswerQuantum, AnswerClassicalCandidate, AnswerClassicalFallback)
	}
	if AnswerQuantum.Degraded() || AnswerClassicalCandidate.Degraded() {
		t.Fatal("non-fallback sources marked degraded")
	}
}
