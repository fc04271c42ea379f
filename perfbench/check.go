package main

import (
	"fmt"
	"math"
)

// checkAnswer validates one frame's answer: a full ±1 spin vector whose
// reported energy is the problem's energy of those spins, plus finite
// per-spin LLRs on soft-output frames.
func checkAnswer(a frameAnswer) error {
	n := a.problem.N
	if len(a.spins) != n {
		return fmt.Errorf("answer has %d spins for a %d-spin problem", len(a.spins), n)
	}
	for i, s := range a.spins {
		if s != 1 && s != -1 {
			return fmt.Errorf("spin %d is %d, not ±1", i, s)
		}
	}
	if e := a.problem.Energy(a.spins); math.Abs(e-a.energy) > energyTol(e) {
		return fmt.Errorf("reported energy %g, problem energy of the spins %g", a.energy, e)
	}
	if len(a.truth.tx) != n {
		return fmt.Errorf("ground truth has %d spins for a %d-spin problem", len(a.truth.tx), n)
	}
	if a.soft {
		if len(a.llrs) != n {
			return fmt.Errorf("%d LLRs for a %d-spin problem", len(a.llrs), n)
		}
		for i, l := range a.llrs {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("LLR %d is %g", i, l)
			}
		}
	}
	if math.IsNaN(a.finish) || a.finish < a.arrival {
		return fmt.Errorf("finish %g before arrival %g", a.finish, a.arrival)
	}
	return nil
}

// checkCall validates every answer of a call and returns the number of
// frames that failed.
func checkCall(res *callResult) (failed int, first error) {
	for _, a := range res.answers {
		if err := checkAnswer(a); err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, first
}
