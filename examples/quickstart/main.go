// Quickstart: solve one Large MIMO detection problem with the paper's
// hybrid classical-quantum prototype (Greedy Search → Reverse Annealing).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/rng"
)

func main() {
	// 1. Synthesize a detection instance: 8 users sending 16-QAM symbols
	//    over a unit-gain random-phase channel (§4.2's workload).
	inst, err := instance.Synthesize(instance.Spec{
		Users:   8,
		Scheme:  modulation.QAM16,
		Channel: channel.UnitGainRandomPhase,
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("problem: recover %d symbols from y = Hx (%d-spin Ising form)\n",
		inst.Spec.Users, inst.Reduction.NumSpins())

	// 2. Solve with the hybrid: greedy search produces a candidate, which
	//    programs the initial state of a reverse anneal on the simulated
	//    quantum annealer; the best sample is the detection.
	hybrid := &core.Ensemble{NumReads: 200}
	out, err := hybrid.Solve(inst.Reduction, rng.New(42))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the outcome.
	dInit := metrics.DeltaEForIsing(inst.Reduction.Ising, out.InitialEnergy, inst.GroundEnergy)
	dBest := metrics.DeltaEForIsing(inst.Reduction.Ising, out.Best.Energy, inst.GroundEnergy)
	fmt.Printf("greedy candidate quality ΔE_IS%%: %.2f\n", dInit)
	fmt.Printf("hybrid best sample   ΔE%%:      %.2f\n", dBest)
	fmt.Printf("quantum time: %d reads × %.2f μs = %.0f μs\n",
		len(out.Samples), out.ScheduleDuration, out.AnnealTime)
	fmt.Printf("symbol errors: %d/%d\n",
		mimo.SymbolErrors(out.Symbols, inst.Transmitted), inst.Spec.Users)
}
