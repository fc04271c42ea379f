// Pipeline: Figure 2's staged classical-quantum processing of successive
// wireless channel uses. Frames arrive periodically; a CPU stage runs
// greedy search while the QPU stage reverse-anneals the PREVIOUS frame,
// so the two processor types overlap. The example prints the modelled
// schedule, per-frame latencies against an ARQ deadline, and the
// throughput gain over serial execution.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/pipeline"
	"repro/internal/rng"

	"repro/internal/modulation"
)

func main() {
	const (
		users          = 4
		frames         = 10
		arrivalMicros  = 150.0  // channel-use spacing
		deadlineMicros = 2000.0 // ARQ turn-around budget
	)
	insts, err := instance.Corpus(instance.Spec{
		Users: users, Scheme: modulation.QAM16, Channel: channel.UnitGainRandomPhase,
	}, 31, frames)
	if err != nil {
		log.Fatal(err)
	}

	stages := []pipeline.Stage{
		&pipeline.ClassicalStage{
			Rng: rng.New(1),
			// Model a heavier classical module (e.g. K-best) so the
			// overlap with the quantum stage is visible.
			MicrosFor: func(n int) float64 { return 70 },
		},
		&pipeline.EnsembleStage{
			ReadsPerArm: 60,
			Config:      core.AnnealConfig{},
			Rng:         rng.New(2),
		},
	}
	p := &pipeline.Pipeline{Stages: stages, BufferSize: 1}

	fr, err := pipeline.GenerateFrames(insts, arrivalMicros, deadlineMicros)
	if err != nil {
		log.Fatal(err)
	}
	processed, err := p.Run(fr)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := p.Schedule(processed)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pipeline: %v, %d channel uses arriving every %.0f μs\n",
		rep.StageNames, frames, arrivalMicros)
	fmt.Printf("%5s %10s %10s %10s %10s %8s %6s\n",
		"frame", "arrive_us", "cpu_start", "qpu_start", "finish", "lat_us", "ok")
	for i, ft := range rep.Frames {
		pl := processed[i].Payload.(*pipeline.DetectionPayload)
		ok := "yes"
		if ft.Missed || pl.SymbolErrors > 0 {
			ok = "NO"
		}
		fmt.Printf("%5d %10.0f %10.0f %10.0f %10.0f %8.0f %6s\n",
			ft.Seq, ft.Arrival, ft.Start[0], ft.Start[1], ft.Finish[1], ft.Latency, ok)
	}
	fmt.Printf("\nthroughput: %.0f frames/s  mean latency: %.0f μs  p95: %.0f μs\n",
		rep.ThroughputPerSecond, rep.MeanLatency, rep.P95Latency)
	fmt.Printf("deadline misses: %.0f%%  stage utilization: cpu %.0f%%, qpu %.0f%%\n",
		rep.DeadlineMissRate*100, rep.Utilization[0]*100, rep.Utilization[1]*100)
}
