package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/annealer"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/rng"
)

// TestEnsembleStageK1ServiceTimeExact: the single-arm stage is named
// "qpu:ra" and charges exactly one programming cycle plus, per read, the
// RA schedule and the readout — bit for bit, not within a tolerance.
func TestEnsembleStageK1ServiceTimeExact(t *testing.T) {
	insts, err := instance.Corpus(instance.Spec{
		Users: 3, Scheme: modulation.QAM16, Channel: channel.UnitGainRandomPhase,
	}, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := GenerateFrames(insts, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Overheads where regrouping the charge as anneal time plus readout
	// time (reads·dur + reads·readout) lands one ulp away.
	const (
		reads       = 20
		programming = 10.0
		readout     = 0.2
	)
	es := &EnsembleStage{
		ReadsPerArm: reads, Config: core.AnnealConfig{SweepsPerMicrosecond: 60},
		ProgrammingMicros: programming, ReadoutMicros: readout, Rng: rng.New(2),
	}
	if es.Name() != "qpu:ra" {
		t.Fatalf("single-arm stage name %q", es.Name())
	}
	p := &Pipeline{Stages: []Stage{&ClassicalStage{Rng: rng.New(1)}, es}}
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := annealer.Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := programming + reads*(sc.Duration()+readout)
	for _, f := range out {
		if f.Err != nil {
			t.Fatal(f.Err)
		}
		if f.ServiceTimes[1] != want {
			t.Fatalf("frame %d: service %v, want exactly %v", f.Seq, f.ServiceTimes[1], want)
		}
		if pl := f.Payload.(*DetectionPayload); len(pl.SoftLLRs) != pl.Instance.Reduction.NumSpins() {
			t.Fatalf("frame %d: %d fused LLRs, want one per spin", f.Seq, len(pl.SoftLLRs))
		}
	}
}

// TestEnsembleStageSeedsFromClassicalStage: arm 0 is seeded with the
// candidate the classical stage computed, not a greedy state the quantum
// stage recomputes — so with a random classical module the stage detects
// exactly like an ensemble seeded by that frame's InitialState, and not
// like the greedy-seeded one.
func TestEnsembleStageSeedsFromClassicalStage(t *testing.T) {
	insts, err := instance.Corpus(instance.Spec{
		Users: 3, Scheme: modulation.QAM16, Channel: channel.UnitGainRandomPhase,
	}, 13, 4)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := GenerateFrames(insts, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.AnnealConfig{SweepsPerMicrosecond: 60}
	es := &EnsembleStage{K: 2, ReadsPerArm: 10, Config: cfg, Rng: rng.New(2)}
	p := &Pipeline{Stages: []Stage{&ClassicalStage{Module: core.RandomModule{}, Rng: rng.New(1)}, es}}
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	differsFromGreedy := 0
	for _, f := range out {
		if f.Err != nil {
			t.Fatal(f.Err)
		}
		pl := f.Payload.(*DetectionPayload)
		red := pl.Instance.Reduction
		seeded, err := (&core.Ensemble{Classical: core.FixedModule{State: pl.InitialState}, K: 2, NumReads: 10, Config: cfg}).
			Solve(red, rng.New(2).Split(uint64(f.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pl.SoftLLRs, seeded.FusedLLRs) || pl.BestEnergy != seeded.Best.Energy || pl.Source != seeded.Source {
			t.Fatalf("frame %d: stage did not seed arm 0 from the classical stage's candidate", f.Seq)
		}
		greedy, err := (&core.Ensemble{K: 2, NumReads: 10, Config: cfg}).Solve(red, rng.New(2).Split(uint64(f.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(greedy.FusedLLRs, seeded.FusedLLRs) {
			differsFromGreedy++
		}
	}
	if differsFromGreedy == 0 {
		t.Fatal("random and greedy seeds never diverged; the test cannot tell them apart")
	}
}

// TestEnsembleStageWidensAndCharges: a K×G stage fuses every arm and
// charges each arm's anneal plus per-read readout on top of one shared
// programming cycle.
func TestEnsembleStageWidensAndCharges(t *testing.T) {
	insts, err := instance.Corpus(instance.Spec{
		Users: 3, Scheme: modulation.QAM16, Channel: channel.UnitGainRandomPhase,
	}, 11, 3)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := GenerateFrames(insts, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	const (
		reads       = 10
		programming = 1000.0
		readout     = 25.0
	)
	es := &EnsembleStage{
		K: 2, SpGrid: []float64{0.37, 0.45}, ReadsPerArm: reads,
		Config:            core.AnnealConfig{SweepsPerMicrosecond: 60},
		ProgrammingMicros: programming, ReadoutMicros: readout,
		Rng: rng.New(3),
	}
	if es.Name() != "qpu:ra-ensemble[k=2,g=2]" {
		t.Fatalf("stage name %q", es.Name())
	}
	p := &Pipeline{Stages: []Stage{&ClassicalStage{Rng: rng.New(1)}, es}}
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range out {
		if f.Err != nil {
			t.Fatal(f.Err)
		}
		pl := f.Payload.(*DetectionPayload)
		if pl.SoftLLRs == nil {
			t.Fatalf("frame %d missing fused soft output", f.Seq)
		}
		// 4 arms: programming once, readout per read per arm, anneal > 0.
		floor := programming + 4*reads*readout
		if f.ServiceTimes[1] <= floor {
			t.Fatalf("frame %d service %v under the %v overhead floor", f.Seq, f.ServiceTimes[1], floor)
		}
	}
}
