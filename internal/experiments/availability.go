package experiments

import (
	"fmt"
	"io"

	"repro/internal/annealer"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// AvailabilityRow is one injected-fault rate's end-to-end service quality
// through the retry+fallback pipeline.
type AvailabilityRow struct {
	// ProgrammingFailureRate is the injected per-call QPU failure rate.
	ProgrammingFailureRate float64
	// Completed counts frames that produced an answer (must equal Frames:
	// the fallback guarantee), Errors the frames that did not.
	Completed, Errors int
	// Retries / Fallbacks are summed over frames.
	Retries, Fallbacks int
	FallbackRate       float64
	// DecodeRate is the fraction of frames decoded to the transmitted
	// symbols — the quality that degrades as fallbacks take over.
	DecodeRate float64
	// QuantumRate is the fraction of frames whose answer used the quantum
	// stage (1 − fallback rate).
	QuantumRate float64
	// MeanLatencyMicros and DeadlineMissRate come from the modelled
	// schedule, including retry backoff and failed-attempt charges.
	MeanLatencyMicros float64
	DeadlineMissRate  float64
}

// AvailabilityResult is the soft-failure study: availability of the
// staged classical-quantum pipeline as the simulated QPU degrades from
// healthy to failing more than half its programming cycles.
type AvailabilityResult struct {
	Rows           []AvailabilityRow
	Frames         int
	MaxAttempts    int
	BackoffMicros  float64
	DeadlineMicros float64
}

// RunAvailability sweeps the QPU programming-failure rate for a fixed
// frame stream through the GS→RA pipeline with retry+fallback enabled.
// The paper's Challenge 3 pipelines stages against a hard ARQ deadline;
// this harness shows the robustness corollary: with bounded retries and
// the classical GS candidate as fallback, every frame is answered at any
// fault rate — fault pressure converts quality (decode rate, quantum
// share), not availability.
func RunAvailability(cfg Config) (*AvailabilityResult, error) {
	cfg = cfg.withDefaults()
	const (
		users          = 4
		frames         = 24
		intervalMicros = 400.0
		deadlineMicros = 4_000.0
		reads          = 60
		maxAttempts    = 3
		backoffMicros  = 25.0
	)
	insts, err := instance.Corpus(instance.Spec{Users: users, Scheme: modulation.QAM16},
		cfg.Seed^0xFA17, frames)
	if err != nil {
		return nil, err
	}
	res := &AvailabilityResult{
		Frames: frames, MaxAttempts: maxAttempts,
		BackoffMicros: backoffMicros, DeadlineMicros: deadlineMicros,
	}
	for _, rate := range []float64{0, 0.1, 0.25, 0.5, 0.75} {
		qcfg := cfg.annealConfig()
		qcfg.Faults = annealer.FaultModel{ProgrammingFailureRate: rate}
		p := &pipeline.Pipeline{Stages: []pipeline.Stage{
			&pipeline.ClassicalStage{Rng: rng.New(cfg.Seed ^ 5)},
			&pipeline.Retry{
				Stage: &pipeline.EnsembleStage{
					ReadsPerArm: reads,
					Config:      qcfg,
					Rng:         rng.New(cfg.Seed ^ 6),
				},
				MaxAttempts:   maxAttempts,
				BackoffMicros: backoffMicros,
				Fallback:      &pipeline.ClassicalFallback{},
				Trace:         cfg.Trace,
			},
		}, Trace: cfg.Trace, Metrics: cfg.Metrics}
		fr, err := pipeline.GenerateFrames(insts, intervalMicros, deadlineMicros)
		if err != nil {
			return nil, err
		}
		processed, err := p.Run(fr)
		if err != nil {
			return nil, err
		}
		row := AvailabilityRow{ProgrammingFailureRate: rate}
		decoded := 0
		for _, f := range processed {
			if f.Err != nil {
				row.Errors++
				continue
			}
			row.Completed++
			if f.Payload.(*pipeline.DetectionPayload).SymbolErrors == 0 {
				decoded++
			}
		}
		if row.Errors > 0 {
			return nil, fmt.Errorf("availability: %d frames errored at rate %.2f — fallback guarantee violated", row.Errors, rate)
		}
		rep, err := p.Schedule(processed)
		if err != nil {
			return nil, err
		}
		row.Retries = rep.Retries
		row.Fallbacks = rep.Fallbacks
		row.FallbackRate = rep.FallbackRate
		row.QuantumRate = 1 - rep.FallbackRate
		row.DecodeRate = float64(decoded) / float64(frames)
		row.MeanLatencyMicros = rep.MeanLatency
		row.DeadlineMissRate = rep.DeadlineMissRate
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteTable renders the study.
func (r *AvailabilityResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Availability under QPU soft failure (%d frames, ≤%d attempts, %.0f μs backoff, %.0f μs deadline)\n",
		r.Frames, r.MaxAttempts, r.BackoffMicros, r.DeadlineMicros)
	writeRow(w, "fail_rate", "done", "retries", "fallbacks", "quantum", "decode", "mean_lat", "miss_rate")
	for _, row := range r.Rows {
		writeRow(w, row.ProgrammingFailureRate, row.Completed, row.Retries,
			row.Fallbacks, row.QuantumRate, row.DecodeRate,
			row.MeanLatencyMicros, row.DeadlineMissRate)
	}
}
