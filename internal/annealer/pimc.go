package annealer

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// PIMC is the path-integral Monte Carlo engine — simulated quantum
// annealing, the standard classical surrogate for transverse-field
// quantum annealing dynamics (Boixo et al. 2014; Rønnow et al. 2014).
//
// The transverse-field Ising model at inverse temperature β is mapped by
// the Suzuki–Trotter decomposition onto P coupled classical replicas
// ("imaginary-time slices") with action
//
//	S = (β·B(s)/2P)·Σ_k E_problem(slice k)
//	  − K(s)·Σ_k Σ_i s_{i,k}·s_{i,k+1} ,
//	K(s) = −½·ln tanh(β·A(s)/2P) ≥ 0  (periodic in k),
//
// evolved by Metropolis single-spin flips as s(t) follows the schedule.
// Strong transverse field (small s) means weak replica coupling —
// replicas decorrelate, measurement is random; near s = 1 the replicas
// lock ferromagnetically and the system behaves as a classical register.
// Measurement returns one uniformly chosen replica, mirroring the
// projective readout of the device.
type PIMC struct {
	// Slices is the Trotter number P (default 16).
	Slices int
	// MaxTemporalCoupling clamps K(s) as A(s) → 0 so late-schedule
	// dynamics freeze smoothly instead of dividing by zero (default 5).
	MaxTemporalCoupling float64
}

// Name implements Engine.
func (PIMC) Name() string { return "pimc" }

func (e PIMC) slices() int {
	if e.Slices <= 0 {
		return 16
	}
	return e.Slices
}

func (e PIMC) kMax() float64 {
	if e.MaxTemporalCoupling <= 0 {
		return 5
	}
	return e.MaxTemporalCoupling
}

// temporalCoupling returns K(s), clamped to [0, kMax].
func (e PIMC) temporalCoupling(beta, a float64, p int) float64 {
	arg := beta * a / (2 * float64(p))
	if arg <= 0 {
		return e.kMax()
	}
	t := math.Tanh(arg)
	if t <= 0 {
		return e.kMax()
	}
	k := -0.5 * math.Log(t)
	if k < 0 {
		k = 0 // tanh > 1 cannot happen; guard for rounding
	}
	if k > e.kMax() {
		k = e.kMax()
	}
	return k
}

// pimcScratch is one read's working state, pooled package-wide (any
// lease, Trotter number or problem size: ensure re-slices it per read).
// The replica matrix is stored n-major — spin i of slice k lives at
// replicaFlat[i*p+k] — so the three slice values a Metropolis proposal
// touches (current, imaginary-time neighbours k±1) sit in the same
// 16-byte block instead of three cache lines P·N bytes apart. The field matrix stays k-major
// because the accept path streams a whole row of slice k's fields.
type pimcScratch struct {
	replicaFlat []int8    // n-major: spin i of slice k at [i*p+k]
	fieldFlat   []float64 // k-major: slice k's fields at [k*n : (k+1)*n]
	fields      [][]float64
	energies    []float64 // per-replica problem energies (probed runs only)
	gather      []int8    // one replica's spins, contiguous (probe init only)
}

func (sc *pimcScratch) ensure(p, n int) {
	sc.replicaFlat = resize(sc.replicaFlat, p*n)
	sc.fieldFlat, sc.fields = sliceRows(sc.fieldFlat, sc.fields, p, n)
	sc.energies = resize(sc.energies, p)
	sc.gather = resize(sc.gather, n)
}

// sliceRows sizes flat to p rows of n values and rows to the p row views
// into it, reusing both backings when they are large enough.
func sliceRows(flat []float64, rows [][]float64, p, n int) ([]float64, [][]float64) {
	flat = resize(flat, p*n)
	rows = resize(rows, p)
	for k := range rows {
		rows[k] = flat[k*n : (k+1)*n]
	}
	return flat, rows
}

var pimcScratchPool = sync.Pool{New: func() any { return new(pimcScratch) }}

// Prepare implements Engine: the per-sweep spatial action factor
// β·B(s)/2P and clamped temporal coupling K(s) — a tanh+log per sweep —
// are computed once for the batch instead of once per read, and replica/
// field scratch comes from pimcScratchPool.
func (e PIMC) Prepare(sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (ReadFunc, error) {
	tab, err := newSweepTable(sc, prof, sweepsPerMicrosecond)
	if err != nil {
		return nil, err
	}
	p := e.slices()
	beta := 1 / prof.TemperatureGHz
	spatial := make([]float64, tab.sweeps())
	temporal := make([]float64, tab.sweeps())
	for i := range spatial {
		spatial[i] = beta * tab.b[i] / (2 * float64(p))
		temporal[i] = e.temporalCoupling(beta, tab.a[i], p)
	}
	startsClassical := sc.StartsClassical()
	return func(pr *qubo.CSR, init []int8, out []int8, r *rng.Source, probe Probe) {
		st := pimcScratchPool.Get().(*pimcScratch)
		st.ensure(p, pr.N)
		pimcRead(pr, tab, spatial, temporal, p, startsClassical, init, out, st, r, probe)
		pimcScratchPool.Put(st)
	}, nil
}

// pimcRead evolves one PIMC read. It draws from r in exactly the same
// order regardless of probe, so probed and unprobed runs are
// bit-identical; the per-replica problem energies a probe reports are
// maintained incrementally during flips (O(1) per flip) instead of
// recomputed from scratch every sweep (O(P·n·deg)).
func pimcRead(pr *qubo.CSR, tab *sweepTable, spatial, temporal []float64, p int,
	startsClassical bool, init, out []int8, st *pimcScratch, r *rng.Source, probe Probe) {
	n := pr.N
	flat, fields := st.replicaFlat, st.fields
	cols, w, offs := pr.Cols, pr.W, pr.Offsets
	if startsClassical {
		if len(init) != n {
			panic("annealer: PIMC reverse anneal requires an initial state")
		}
		for i, s := range init {
			base := i * p
			for k := 0; k < p; k++ {
				flat[base+k] = s
			}
		}
	} else {
		// Slice-major draw order, matching the previous k-major layout's
		// initialisation stream bit for bit.
		for k := 0; k < p; k++ {
			for i := 0; i < n; i++ {
				flat[i*p+k] = r.Spin()
			}
		}
	}
	// fields[k][i] = h_i + Σ_j J_ij·s_{j,k}, maintained incrementally
	// (the inlined row walk is CSR.LocalField against the strided layout).
	for k := 0; k < p; k++ {
		f := fields[k]
		for i := 0; i < n; i++ {
			fi := pr.H[i]
			for kk := offs[i]; kk < offs[i+1]; kk++ {
				fi += w[kk] * float64(flat[int(cols[kk])*p+k])
			}
			f[i] = fi
		}
	}
	// trackE: replica problem energies only matter when someone watches.
	trackE := probe != nil
	if trackE {
		for k := 0; k < p; k++ {
			for i := 0; i < n; i++ {
				st.gather[i] = flat[i*p+k]
			}
			st.energies[k] = pr.Energy(st.gather)
		}
	}

	// The sweep loop advances the generator in locals (see fastrand.go);
	// the draw sequence — one bounded index per proposal, one uniform per
	// uphill proposal — is bit-identical to r.Intn/r.Float64.
	nb := uint64(n)
	negnb := lemireThreshold(n)
	rs0, rs1, rs2, rs3 := r.State()
	sweeps := tab.sweeps()
	for sweep := 0; sweep < sweeps; sweep++ {
		// −2·sp and 2·tc are exact (power-of-two scalings), so hoisting
		// them out of the proposal loop cannot change any rounding.
		spm2 := -2 * spatial[sweep]
		tc2 := 2 * temporal[sweep]
		accepted := 0
		for k := 0; k < p; k++ {
			kPrev := k - 1
			if kPrev < 0 {
				kPrev = p - 1
			}
			kNext := k + 1
			if kNext == p {
				kNext = 0
			}
			f := fields[k]
			for m := 0; m < n; m++ {
				var x uint64
				x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
				hi, lo := bits.Mul64(x, nb)
				for lo < negnb {
					x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
					hi, lo = bits.Mul64(x, nb)
				}
				i := int(hi)
				base := i * p
				si8 := flat[base+k]
				si := float64(si8)
				// Spatial action delta: flipping s changes slice energy by
				// −2·s·f, scaled by the spatial action factor; the two
				// temporal bonds change by +2·K·s·(s_prev + s_next).
				dS := spm2*si*f[i] + tc2*si*float64(flat[base+kPrev]+flat[base+kNext])
				accept := dS <= 0
				if !accept {
					x, rs0, rs1, rs2, rs3 = xoshiroNext(rs0, rs1, rs2, rs3)
					u := float64(x>>11) * (1.0 / (1 << 53))
					v := metroBracket(u, dS)
					accept = v > 0 || (v == 0 && metropolisExpExact(u, dS))
				}
				if accept {
					accepted++
					if trackE {
						// Problem-frame energy delta of the flip; f[i]
						// excludes s_i, so it is still valid here.
						st.energies[k] -= 2 * float64(si8) * f[i]
					}
					nv := -si8
					flat[base+k] = nv
					nvf := float64(nv)
					for kk := offs[i]; kk < offs[i+1]; kk++ {
						f[cols[kk]] += 2 * w[kk] * nvf
					}
				}
			}
		}
		if probe != nil {
			// Copy the tracked energies so the observation owns its slice
			// (probes may retain it past this sweep).
			energies := make([]float64, p)
			var mean float64
			for k, e := range st.energies {
				energies[k] = e
				mean += e
			}
			probe.ObserveSweep(SweepObservation{
				Sweep: sweep, TotalSweeps: sweeps, TimeMicros: tab.t[sweep], S: tab.s[sweep],
				Energy: mean / float64(p), ReplicaEnergies: energies,
				Accepted: accepted, Proposed: p * n,
			})
		}
	}

	r.SetState(rs0, rs1, rs2, rs3)

	// Projective measurement: one uniformly chosen replica.
	kSel := r.Intn(p)
	for i := 0; i < n; i++ {
		out[i] = flat[i*p+kSel]
	}
}
