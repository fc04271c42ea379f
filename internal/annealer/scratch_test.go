package annealer

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// TestPooledScratchAcrossProblems drives the package-level scratch pools
// the way a serving tier does: two goroutines interleave RunPrepared on
// two problems of different size and topology, each prepared on a
// logical lease and on a QPU lease, with ICE and calibration drift
// programming every read's coefficient clone. Each result must equal a
// fresh one-shot Run/QPU.Run on the same seed bit for bit — a pooled
// clone re-programmed without adopting the new problem's topology, or
// engine scratch still shaped for the previous problem, would run the
// wrong dynamics.
func TestPooledScratchAcrossProblems(t *testing.T) {
	probs := []*qubo.Ising{frustrated(5, 0x5C1), frustrated(9, 0x5C2)}
	sc, err := Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	inits := make([][]int8, len(probs))
	for k, is := range probs {
		inits[k] = make([]int8, is.N)
		for i := range inits[k] {
			inits[k][i] = int8(1 - 2*(i%2))
		}
	}
	qpus := []*QPU{nil, NewQPU2000Q()} // logical lease, QPU lease
	const reads = 11                   // one full lockstep group plus a partial one
	for _, eng := range []Engine{SVMC{}, PIMC{Slices: 8}} {
		t.Run(eng.Name(), func(t *testing.T) {
			p := Params{
				Schedule: sc, NumReads: reads, SweepsPerMicrosecond: 30, Engine: eng,
				ICE:    ICE{SigmaH: 0.03, SigmaJ: 0.02},
				Faults: FaultModel{CalibrationDriftRate: 0.3},
			}
			// The four (lease, problem) combinations and their references.
			type combo struct {
				l    *Lease
				prep *Prepared
				init []int8
				ref  [2]*Result // per goroutine seed
			}
			var combos []combo
			for _, q := range qpus {
				l, err := NewLease(p)
				if q != nil {
					l, err = q.Lease(p)
				}
				if err != nil {
					t.Fatal(err)
				}
				for k, is := range probs {
					prep, err := l.PrepareProblem(is)
					if err != nil {
						t.Fatal(err)
					}
					c := combo{l: l, prep: prep, init: inits[k]}
					rp := p
					rp.InitialState = inits[k]
					for g := range c.ref {
						if c.ref[g], err = oneShot(q, is, rp, rng.New(seedFor(g, len(combos)))); err != nil {
							t.Fatal(err)
						}
					}
					combos = append(combos, c)
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for step := range combos {
						// The goroutines walk the combinations in opposite
						// orders, so consecutive reads on each pooled
						// scratch switch problem, size and lease.
						ci := step
						if g == 1 {
							ci = len(combos) - 1 - step
						}
						c := combos[ci]
						got, err := c.l.RunPrepared(c.prep, c.init, reads, rng.New(seedFor(g, ci)))
						if err != nil {
							t.Error(err)
							return
						}
						if !reflect.DeepEqual(*got, *c.ref[g]) {
							t.Errorf("goroutine %d, combination %d: pooled-scratch result diverges from the one-shot run", g, ci)
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func seedFor(g, combo int) uint64 { return uint64(0x5EED00 + 16*g + combo) }
