// Basestation: an end-to-end uplink simulation. Users transmit random
// bits over a noisy channel for many channel uses; the base station
// detects each frame with several detectors — the linear and tree-search
// classical baselines and the GS→RA hybrid — and the example reports
// per-detector bit error rates and ML-optimality rates.
//
//	go run ./examples/basestation
package main

import (
	"fmt"
	"log"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/rng"
)

const (
	users  = 6
	frames = 20
	snrDB  = 14.0
)

func main() {
	scheme := modulation.QAM16
	n0 := channel.NoiseVarianceForSNR(snrDB, users)
	insts, err := instance.Corpus(instance.Spec{
		Users: users, Scheme: scheme, Channel: channel.Rayleigh, NoiseVariance: n0,
	}, 99, frames)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uplink: %d users, %s, Rayleigh fading, %d frames at %.0f dB SNR\n",
		users, scheme, frames, snrDB)

	type detectFn func(in *instance.Instance, r *rng.Source) ([]complex128, error)
	r := rng.New(2024)
	hybrid := func(in *instance.Instance, r *rng.Source) ([]complex128, error) {
		out, err := (&core.Ensemble{NumReads: 150}).Solve(in.Reduction, r)
		if err != nil {
			return nil, err
		}
		return out.Symbols, nil
	}
	classical := func(d mimo.Detector) detectFn {
		return func(in *instance.Instance, _ *rng.Source) ([]complex128, error) {
			return d.Detect(in.Problem)
		}
	}
	detectors := []struct {
		name string
		fn   detectFn
	}{
		{"zf", classical(mimo.ZeroForcing{})},
		{"mmse", classical(mimo.MMSE{NoiseVariance: n0})},
		{"kbest16", classical(mimo.KBest{K: 16})},
		{"fcsd", classical(mimo.FCSD{FullExpansion: 2})},
		{"sd (ML)", classical(mimo.SphereDecoder{})},
		{"gs+ra", hybrid},
	}

	totalBits := frames * users * scheme.BitsPerSymbol()
	fmt.Printf("%-8s  %10s  %12s  %10s\n", "detector", "bit errors", "BER", "ML-optimal")
	for _, det := range detectors {
		bitErrs, mlHits := 0, 0
		for fi, in := range insts {
			syms, err := det.fn(in, r.SplitString(fmt.Sprintf("%s/%d", det.name, fi)))
			if err != nil {
				log.Fatalf("%s frame %d: %v", det.name, fi, err)
			}
			bitErrs += mimo.BitErrors(scheme, syms, in.Transmitted)
			// ML-optimality: the detector found a point at least as good
			// as the exact ML optimum's objective.
			if in.Problem.Objective(syms) <= in.Problem.Objective(in.Optimal)+1e-9 {
				mlHits++
			}
		}
		fmt.Printf("%-8s  %10d  %12.5f  %7d/%d\n",
			det.name, bitErrs, float64(bitErrs)/float64(totalBits), mlHits, frames)
	}
	fmt.Println("\n(sd is exact ML; the hybrid aims to match it within its anneal budget,")
	fmt.Println(" while zf/mmse trade optimality for a single matrix inversion.)")
}
