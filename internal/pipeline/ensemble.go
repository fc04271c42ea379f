package pipeline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mimo"
	"repro/internal/rng"
)

// EnsembleStage is the pipeline's quantum stage: it reverse-anneals each
// frame from the classical stage's candidate and charges the device
// service time. K=1 over the trivial {0.45} grid is the paper's single
// RA arm; wider settings run a K×G flexible-parallelism ensemble (top-K
// classical candidates × an s_p grid, fused to soft LLRs). Candidate 0
// is always the frame's InitialState, so the anneal is seeded with the
// same state ClassicalFallback would answer with.
type EnsembleStage struct {
	// K, SpGrid, Tp, ReadsPerArm and Beta configure the core.Ensemble
	// (defaults 1, {0.45}, 1 μs, 50 reads, scale-free fusion beta).
	K           int
	SpGrid      []float64
	Tp          float64
	ReadsPerArm int
	Beta        float64
	Config      core.AnnealConfig
	// ProgrammingMicros and ReadoutMicros model per-call and per-read
	// device overheads added to the pure anneal time. The paper's Figure 2
	// pipelining is exactly about hiding these behind the classical
	// stage; defaults are 0 (fully amortized) — set them to
	// 2000Q-realistic values (10⁴, 123) to see today's integration cost.
	// Every arm shares one programmed instance (the prepared-problem
	// path), so programming is charged once per frame; anneal and readout
	// time are charged per arm.
	ProgrammingMicros float64
	ReadoutMicros     float64
	Rng               *rng.Source
}

// Name implements Stage: "qpu:ra" for the single arm,
// "qpu:ra-ensemble[k=K,g=G]" otherwise.
func (s *EnsembleStage) Name() string {
	k, g := s.K, len(s.SpGrid)
	if k <= 0 {
		k = 1
	}
	if g == 0 {
		g = 1
	}
	if k == 1 && g == 1 {
		return "qpu:ra"
	}
	return fmt.Sprintf("qpu:ra-ensemble[k=%d,g=%d]", k, g)
}

// Process implements Stage.
func (s *EnsembleStage) Process(f *Frame) (float64, error) {
	pl, ok := f.Payload.(*DetectionPayload)
	if !ok {
		return 0, fmt.Errorf("frame payload is %T, want *DetectionPayload", f.Payload)
	}
	if pl.InitialState == nil {
		return 0, fmt.Errorf("frame %d reached the quantum stage without a classical candidate", f.Seq)
	}
	reads := s.ReadsPerArm
	if reads <= 0 {
		reads = 50
	}
	r := s.Rng
	if r == nil {
		r = rng.New(1)
	}
	// Attempt 0 uses the exact per-frame stream an unretried stage would;
	// re-attempts derive fresh sub-streams so a retry is not a replay of
	// the same faulted call.
	rr := r.Split(uint64(f.Seq))
	if f.Attempt > 0 {
		rr = rr.Split(uint64(f.Attempt))
	}
	det := &core.Ensemble{
		Classical: core.FixedModule{State: pl.InitialState},
		K:         s.K, SpGrid: s.SpGrid, Tp: s.Tp, NumReads: reads,
		Beta: s.Beta, Config: s.Config,
	}
	out, err := det.Solve(pl.Instance.Reduction, rr)
	if err != nil {
		// A failed call still occupied the device for its programming
		// cycle; charge that so retry accounting reflects real time lost.
		return s.ProgrammingMicros, err
	}
	pl.Symbols = out.Symbols
	pl.BestEnergy = out.Best.Energy
	pl.SymbolErrors = mimo.SymbolErrors(out.Symbols, pl.Instance.Transmitted)
	pl.Source = out.Source
	pl.Degraded = out.Source.Degraded()
	pl.SoftLLRs = out.FusedLLRs
	service := s.ProgrammingMicros
	for _, a := range out.Arms {
		service += float64(reads) * (a.ScheduleDuration + s.ReadoutMicros)
	}
	return service, nil
}
