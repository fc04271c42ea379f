package experiments

import (
	"fmt"
	"io"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// CapacityRow is one QPU-pool size's modelled service quality under a
// fixed Poisson arrival process.
type CapacityRow struct {
	QPUs                int
	DeadlineMissRate    float64
	MeanLatencyMicros   float64
	P95LatencyMicros    float64
	QPUUtilization      float64
	ThroughputPerSecond float64
}

// CapacityResult is the Challenge-3 capacity-planning study: how many
// quantum processing units a base station needs for a given channel-use
// arrival rate and ARQ deadline — the "assign those units to staged
// processing units" question, answered with the pipeline model's
// replicated-stage scheduling.
type CapacityResult struct {
	Rows           []CapacityRow
	Frames         int
	MeanArrival    float64
	DeadlineMicros float64
	ServiceMicros  float64
}

// RunCapacity sweeps the QPU pool size for a bursty (Poisson) stream of
// channel uses whose quantum service time exceeds the mean inter-arrival
// time — so a single QPU saturates and the deadline miss rate reveals
// the required pool size.
func RunCapacity(cfg Config) (*CapacityResult, error) {
	cfg = cfg.withDefaults()
	const (
		users          = 4
		frames         = 40
		meanArrival    = 60.0  // μs between channel uses
		deadlineMicros = 800.0 // ARQ budget
		reads          = 60    // quantum stage reads → ~126 μs service
	)
	insts, err := instance.Corpus(instance.Spec{Users: users, Scheme: modulation.QAM16},
		cfg.Seed^0xCAFE, frames)
	if err != nil {
		return nil, err
	}
	res := &CapacityResult{Frames: frames, MeanArrival: meanArrival, DeadlineMicros: deadlineMicros}
	for _, qpus := range []int{1, 2, 3, 4} {
		stages := []pipeline.Stage{
			&pipeline.ClassicalStage{Rng: rng.New(cfg.Seed ^ 3)},
			&pipeline.EnsembleStage{
				ReadsPerArm: reads,
				Config:      cfg.annealConfig(),
				Rng:         rng.New(cfg.Seed ^ 4),
			},
		}
		p := &pipeline.Pipeline{Stages: stages, Replicas: []int{1, qpus},
			Trace: cfg.Trace, Metrics: cfg.Metrics}
		fr, err := pipeline.GenerateFramesPoisson(insts, meanArrival, deadlineMicros,
			rng.New(cfg.Seed^0xA881)) // same arrival draw for every pool size
		if err != nil {
			return nil, err
		}
		processed, err := p.Run(fr)
		if err != nil {
			return nil, err
		}
		rep, err := p.Schedule(processed)
		if err != nil {
			return nil, err
		}
		if res.ServiceMicros == 0 {
			res.ServiceMicros = processed[0].ServiceTimes[1]
		}
		res.Rows = append(res.Rows, CapacityRow{
			QPUs:                qpus,
			DeadlineMissRate:    rep.DeadlineMissRate,
			MeanLatencyMicros:   rep.MeanLatency,
			P95LatencyMicros:    rep.P95Latency,
			QPUUtilization:      rep.Utilization[1],
			ThroughputPerSecond: rep.ThroughputPerSecond,
		})
	}
	return res, nil
}

// WriteTable renders the study.
func (r *CapacityResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Capacity planning: QPU pool size vs deadline misses (%d frames, %.0f μs mean arrival, %.0f μs QPU service, %.0f μs deadline)\n",
		r.Frames, r.MeanArrival, r.ServiceMicros, r.DeadlineMicros)
	writeRow(w, "qpus", "miss_rate", "mean_lat", "p95_lat", "qpu_util", "thru_fps")
	for _, row := range r.Rows {
		writeRow(w, row.QPUs, row.DeadlineMissRate, row.MeanLatencyMicros,
			row.P95LatencyMicros, row.QPUUtilization, row.ThroughputPerSecond)
	}
}
