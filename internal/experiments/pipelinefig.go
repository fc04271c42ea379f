package experiments

import (
	"fmt"
	"io"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// PipelineResult quantifies Figure 2's pipelining argument: processing
// successive channel uses through staged classical/quantum units versus
// running both stages serially per frame.
type PipelineResult struct {
	Frames int `json:"frames"`
	// Pipelined and Serial are the two execution disciplines' reports.
	Pipelined *pipeline.Report `json:"pipelined"`
	Serial    *pipeline.Report `json:"serial"`
	// SpeedupMakespan = serial makespan / pipelined makespan.
	SpeedupMakespan float64 `json:"speedup_makespan"`
	// DecodeRate is the fraction of frames decoded to the transmitted
	// symbols.
	DecodeRate float64 `json:"decode_rate"`
}

// PipelineFigure runs a stream of 16-QAM channel uses through the GS→RA
// pipeline twice: once pipelined (Figure 2) and once with an artificial
// single-stage serialization, and compares modelled makespans.
func PipelineFigure(cfg Config, frames int) (*PipelineResult, error) {
	cfg = cfg.withDefaults()
	if frames <= 0 {
		frames = 8
	}
	insts, err := instance.Corpus(instance.Spec{Users: 4, Scheme: modulation.QAM16},
		cfg.Seed^0x22, frames)
	if err != nil {
		return nil, err
	}
	build := func() []pipeline.Stage {
		return []pipeline.Stage{
			&pipeline.ClassicalStage{
				Rng: rng.New(cfg.Seed ^ 1),
				// Charge a classical stage comparable to the quantum one
				// so the pipeline overlap is visible (a GS-only classical
				// stage is ≈free; a K-best/FCSD module would not be).
				MicrosFor: func(n int) float64 { return 60 },
			},
			&pipeline.EnsembleStage{
				ReadsPerArm: 100,
				Config:      cfg.annealConfig(),
				Rng:         rng.New(cfg.Seed ^ 2),
			},
		}
	}

	// Pipelined: both stages overlap across frames.
	pl := &pipeline.Pipeline{Stages: build(), Trace: cfg.Trace, Metrics: cfg.Metrics}
	fr, err := pipeline.GenerateFrames(insts, 0, 0)
	if err != nil {
		return nil, err
	}
	processed, err := pl.Run(fr)
	if err != nil {
		return nil, err
	}
	pipelined, err := pl.Schedule(processed)
	if err != nil {
		return nil, err
	}
	decoded := 0
	for _, f := range processed {
		if f.Err != nil {
			return nil, f.Err
		}
		if f.Payload.(*pipeline.DetectionPayload).SymbolErrors == 0 {
			decoded++
		}
	}

	// Serial: same service times, but fused into one stage so no overlap.
	serialTimes := make([]float64, len(processed))
	for i, f := range processed {
		for _, st := range f.ServiceTimes {
			serialTimes[i] += st
		}
	}
	serialStage := &replayStage{name: "serial", micros: serialTimes}
	sp := &pipeline.Pipeline{Stages: []pipeline.Stage{serialStage}}
	sfr, err := pipeline.GenerateFrames(insts, 0, 0)
	if err != nil {
		return nil, err
	}
	sprocessed, err := sp.Run(sfr)
	if err != nil {
		return nil, err
	}
	serial, err := sp.Schedule(sprocessed)
	if err != nil {
		return nil, err
	}

	res := &PipelineResult{
		Frames:     frames,
		Pipelined:  pipelined,
		Serial:     serial,
		DecodeRate: float64(decoded) / float64(frames),
	}
	if pipelined.Makespan > 0 {
		res.SpeedupMakespan = serial.Makespan / pipelined.Makespan
	}
	return res, nil
}

// replayStage charges pre-recorded per-frame service times.
type replayStage struct {
	name   string
	micros []float64
}

// Name implements pipeline.Stage.
func (s *replayStage) Name() string { return s.name }

// Process implements pipeline.Stage.
func (s *replayStage) Process(f *pipeline.Frame) (float64, error) {
	if f.Seq < 0 || f.Seq >= len(s.micros) {
		return 0, fmt.Errorf("replay stage has no time for frame %d", f.Seq)
	}
	return s.micros[f.Seq], nil
}

// WriteTable renders the comparison. Missing discipline reports (an
// empty or partially built result) render as zero rows instead of
// dereferencing nil.
func (r *PipelineResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Figure 2: pipelined vs serial classical-quantum processing (%d channel uses)\n", r.Frames)
	writeRow(w, "discipline", "makespan_us", "thru_fps", "mean_lat_us")
	row := func(name string, rep *pipeline.Report) {
		if rep == nil {
			rep = &pipeline.Report{}
		}
		writeRow(w, name, rep.Makespan, rep.ThroughputPerSecond, rep.MeanLatency)
	}
	row("pipelined", r.Pipelined)
	row("serial", r.Serial)
	fmt.Fprintf(w, "makespan speedup: %.2fx; decode rate: %.2f\n", r.SpeedupMakespan, r.DecodeRate)
}
