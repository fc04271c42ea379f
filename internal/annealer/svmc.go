package annealer

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// SVMC is the spin-vector Monte Carlo engine (Shin, Smith, Smolin &
// Vazirani's classical model of D-Wave dynamics): each qubit i is a
// classical rotor with angle θ_i ∈ [0, π], with energy
//
//	E(θ; s) = −A(s)/2·Σ sin θ_i
//	        + B(s)/2·(Σ h_i·cos θ_i + Σ J_ij·cos θ_i·cos θ_j),
//
// evolved by Metropolis updates at the device temperature while s(t)
// follows the anneal schedule. Measurement projects each rotor to
// sign(cos θ).
//
// The model reproduces the schedule physics the paper's comparison rests
// on: at small s the transverse term dominates and rotors sit near π/2
// (random measurement), near s = 1 the problem term with β·B/2 ≫ 1
// freezes the rotors (classical memory), and in between quantum-style
// fluctuations let a reverse anneal escape shallow local minima around
// its programmed initial state.
// The zero value proposes fresh uniform angles per update (the original
// SVMC of Shin et al.). TFMoves switches to transverse-field-scaled
// proposals (the "SVMC-TF" variant of Albash et al.): θ' = θ +
// u·π·A(s)/(A(s)+B(s)) with occasional global jumps at the same rate, so
// move sizes shrink as the problem Hamiltonian overtakes the driver and
// the dynamics freeze out hard. TF moves retain reverse-anneal initial
// states essentially perfectly but also block the local cluster repairs
// that make a hybrid's reverse anneal useful, so the uniform-move model
// plus the device's final quench (annealer.Params) is the calibrated
// default; TF remains available for ablation.
type SVMC struct {
	TFMoves bool
	// MinMoveScale floors the TF proposal width (fraction of π) so the
	// frozen regime retains a sliver of ergodicity (default 0.02).
	MinMoveScale float64
}

// Name implements Engine.
func (e SVMC) Name() string {
	if e.TFMoves {
		return "svmc-tf"
	}
	return "svmc"
}

// moveScale is the TF proposal width as a fraction of π: A/(A+B),
// floored. Early in the schedule (A ≫ B) rotors make full-range moves;
// as the problem Hamiltonian overtakes the driver the moves shrink and
// the dynamics freeze out.
func moveScale(a, b, floor float64) float64 {
	if a+b <= 0 {
		return 1
	}
	s := a / (a + b)
	if s < floor {
		s = floor
	}
	return s
}

// svmcScratch is one read's working state, pooled package-wide (any
// lease, any problem size: ensure re-slices it per read). sinT caches
// sin θ_i alongside the cos θ_i cache z, so a proposal evaluates one
// fused Sincos for the proposed angle instead of three transcendentals.
type svmcScratch struct {
	theta, z, sinT, zField []float64
	probeSpins             []int8
}

func (sc *svmcScratch) ensure(n int) {
	sc.theta = resize(sc.theta, n)
	sc.z = resize(sc.z, n)
	sc.sinT = resize(sc.sinT, n)
	sc.zField = resize(sc.zField, n)
	sc.probeSpins = resize(sc.probeSpins, n)
}

var svmcScratchPool = sync.Pool{New: func() any { return new(svmcScratch) }}

// Prepare implements Engine: it compiles the sweep program — s(t), A(s),
// B(s) and, for TF moves, the per-sweep proposal scale — once for the
// whole batch, and hands back a read function whose scratch (rotor
// angles, cos-θ cache, incremental z-field) comes from svmcScratchPool.
func (e SVMC) Prepare(sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (ReadFunc, error) {
	tab, err := newSweepTable(sc, prof, sweepsPerMicrosecond)
	if err != nil {
		return nil, err
	}
	beta := 1 / prof.TemperatureGHz
	minScale := e.MinMoveScale
	if minScale <= 0 {
		minScale = 0.02
	}
	// TF proposal widths are pure functions of the sweep's (A, B): one
	// table shared by every read instead of a divide per sweep per read.
	var scale []float64
	if e.TFMoves {
		scale = make([]float64, tab.sweeps())
		for i := range scale {
			scale[i] = moveScale(tab.a[i], tab.b[i], minScale)
		}
	}
	startsClassical := sc.StartsClassical()
	return func(pr *qubo.CSR, init []int8, out []int8, r *rng.Source, probe Probe) {
		st := svmcScratchPool.Get().(*svmcScratch)
		st.ensure(pr.N)
		e.read(pr, tab, scale, beta, startsClassical, init, out, st, r, probe)
		svmcScratchPool.Put(st)
	}, nil
}

// read evolves one SVMC read. It draws from r in exactly the same order
// regardless of probe, so probed and unprobed runs are bit-identical.
func (e SVMC) read(pr *qubo.CSR, tab *sweepTable, scale []float64, beta float64,
	startsClassical bool, init, out []int8, st *svmcScratch, r *rng.Source, probe Probe) {
	n := pr.N
	theta, z, sinT, zField := st.theta, st.z, st.sinT, st.zField
	if startsClassical {
		if len(init) != n {
			panic("annealer: SVMC reverse anneal requires an initial state")
		}
		// Loop-invariant transcendentals hoisted: cos 0 = 1, sin 0 = 0 and
		// cos π = −1 are exact; sin π is the (nonzero) libm value at the
		// double nearest π and must stay bit-identical to math.Sin, which
		// TestSVMCStartConstants pins.
		sinPi := math.Sin(math.Pi)
		for i, s := range init {
			if s > 0 {
				theta[i] = 0
				z[i] = 1
				sinT[i] = 0
			} else {
				theta[i] = math.Pi
				z[i] = -1
				sinT[i] = sinPi
			}
		}
	} else {
		// Forward start: rotors aligned with the transverse field.
		// sin(π/2) evaluates to exactly 1 (TestSVMCStartConstants).
		for i := range theta {
			theta[i] = math.Pi / 2
			z[i] = 0
			sinT[i] = 1
		}
	}
	// zField[i] = h_i + Σ_j J_ij·cos θ_j, maintained incrementally.
	cols, w, offs := pr.Cols, pr.W, pr.Offsets
	for i := 0; i < n; i++ {
		f := pr.H[i]
		for k := offs[i]; k < offs[i+1]; k++ {
			f += w[k] * z[cols[k]]
		}
		zField[i] = f
	}

	// The sweep loop advances the generator in locals (see fastrand.go);
	// the draw sequence — index, optional TF gate, proposal angle, one
	// uniform per uphill proposal — is bit-identical to r.Intn/r.Float64.
	nb := uint64(n)
	negnb := lemireThreshold(n)
	rs0, rs1, rs2, rs3 := r.State()
	sweeps := tab.sweeps()
	for sweep := 0; sweep < sweeps; sweep++ {
		a := tab.a[sweep]
		b := tab.b[sweep]
		sc := 1.0
		if scale != nil {
			sc = scale[sweep]
		}
		accepted := 0
		for k := 0; k < n; k++ {
			var x uint64
			x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
			hi, lo := bits.Mul64(x, nb)
			for lo < negnb {
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				hi, lo = bits.Mul64(x, nb)
			}
			i := int(hi)
			global := scale == nil
			if !global {
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				global = float64(x>>11)*(1.0/(1<<53)) < sc
			}
			var nt, sinNt, nz float64
			if global {
				// Global move: a fresh uniform angle. Under TF scaling
				// these occur at rate A/(A+B) — the surrogate for the
				// multi-spin tunnelling channel that closes as the
				// transverse field is suppressed. The draw u is the angle
				// in units of π, so sinCosPi needs no argument reduction;
				// the current angle's sine comes from the sinT cache.
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				u := float64(x>>11) * (1.0 / (1 << 53))
				nt = math.Pi * u
				sinNt, nz = sinCosPi(u)
			} else {
				// Local TF-scaled move around the current angle,
				// reflected into [0, π].
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				nt = theta[i] + (2*(float64(x>>11)*(1.0/(1<<53)))-1)*math.Pi*sc
				if nt < 0 {
					nt = -nt
				}
				if nt > math.Pi {
					nt = 2*math.Pi - nt
				}
				u := nt * (1 / math.Pi)
				if u > 1 {
					u = 1 // guard the π·(1/π) rounding at nt = π
				}
				sinNt, nz = sinCosPi(u)
			}
			dE := -a/2*(sinNt-sinT[i]) + b/2*(nz-z[i])*zField[i]
			accept := dE <= 0
			if !accept {
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				u := float64(x>>11) * (1.0 / (1 << 53))
				xx := beta * dE
				v := metroBracket(u, xx)
				accept = v > 0 || (v == 0 && metropolisExpExact(u, xx))
			}
			if accept {
				accepted++
				dz := nz - z[i]
				theta[i] = nt
				z[i] = nz
				sinT[i] = sinNt
				for kk := offs[i]; kk < offs[i+1]; kk++ {
					zField[cols[kk]] += w[kk] * dz
				}
			}
		}
		if probe != nil {
			for i, zi := range z {
				if zi >= 0 {
					st.probeSpins[i] = 1
				} else {
					st.probeSpins[i] = -1
				}
			}
			probe.ObserveSweep(SweepObservation{
				Sweep: sweep, TotalSweeps: sweeps, TimeMicros: tab.t[sweep], S: tab.s[sweep],
				Energy: pr.Energy(st.probeSpins), Accepted: accepted, Proposed: n,
			})
		}
	}

	r.SetState(rs0, rs1, rs2, rs3)

	for i, zi := range z {
		if zi >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
}
