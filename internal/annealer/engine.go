package annealer

import (
	"fmt"

	"repro/internal/qubo"
	"repro/internal/rng"
)

// Engine is a classical surrogate for the annealer's quantum dynamics.
//
// Two engines are provided. SVMC (spin-vector Monte Carlo) models each
// qubit as a classical O(2) rotor — cheap and known to capture much of
// D-Wave's equilibrium behaviour. PIMC (path-integral Monte Carlo /
// simulated quantum annealing) simulates the transverse-field Ising model
// through its Suzuki–Trotter decomposition — the standard reference
// surrogate in the quantum-annealing benchmarking literature.
//
// An engine runs in two phases. Prepare compiles the batch-invariant
// sweep program — the per-sweep schedule quantities s(t), A(s), B(s) and
// any engine-specific factors derived from them, which are identical for
// every read of a batch — and returns the ReadFunc that evolves one read.
// NewLease calls Prepare once and every batch run on the lease fans the
// ReadFunc out across reads, so the per-sweep trigonometry/transcendentals
// are paid once per lease instead of once per read.
//
// Precondition (validated by the caller, once): the schedule has passed
// (*Schedule).Validate and the profile (Profile).Validate. NewLease
// establishes this in withDefaults before any engine code runs; engines do
// not re-validate and must not panic on schedule content. The one knob an
// engine interprets itself — the sweep rate — is checked in Prepare,
// which returns an error (never panics) for a non-positive rate.
type Engine interface {
	// Name identifies the engine in experiment output.
	Name() string
	// Prepare compiles the sweep program for one batch. See the interface
	// comment for the validation contract.
	Prepare(sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (ReadFunc, error)
}

// ReadFunc evolves one read against pr — the compiled problem, whose
// topology is the batch's but whose coefficients may carry per-read noise
// (ICE, calibration drift) — and writes the measured classical state into
// out (length pr.N). init is the programmed initial state for schedules
// that start at s = 1 (reverse annealing) and is ignored otherwise. probe,
// when non-nil, receives one observation per sweep; a nil probe must cost
// nothing beyond a per-sweep nil check, and probing may never perturb the
// dynamics (the probe sees state, it does not touch the RNG).
//
// ReadFuncs are safe for concurrent use: compiled state is read-only and
// per-read scratch comes from a package-level pool shared by every lease
// and problem size, so steady-state reads allocate nothing.
type ReadFunc func(pr *qubo.CSR, init []int8, out []int8, r *rng.Source, probe Probe)

// BatchRead describes one resident read of a lockstep group: the compiled
// problem it runs against (all reads of a group must share the problem
// TOPOLOGY — Offsets/Cols — though coefficients may differ per read), the
// output spin buffer, and the read's private RNG stream.
type BatchRead struct {
	Prog *qubo.CSR
	Out  []int8
	Rng  *rng.Source
}

// BatchReadFunc evolves a group of reads in LOCKSTEP: all reads advance
// through the sweep program together, with spin state stored as
// struct-of-arrays (read-major contiguous blocks) so the per-sweep
// schedule constants are loaded once per group and the reads' independent
// dependency chains overlap in the pipeline instead of serializing.
//
// Each read draws from its own Rng in EXACTLY the order the one-read
// ReadFunc would — the streams are private, so interleaving reads cannot
// change any draw — and performs the identical floating-point operations,
// so outcomes are bit-identical to running the reads sequentially through
// the ReadFunc (the reference implementation, enforced by
// TestLockstepMatchesSequential). On return every Rng has advanced
// exactly as the sequential read would have left it.
//
// init is the shared programmed initial state (schedules starting at
// s = 1); probes are not supported — probed runs take the sequential
// reference path. BatchReadFuncs are safe for concurrent use: group
// scratch comes from a package-level pool, re-sliced to each group's
// read count and problem size, so concurrent groups of one lease (or of
// different leases and problems) never share it.
type BatchReadFunc func(init []int8, reads []BatchRead)

// BatchEngine is implemented by engines that provide a lockstep
// multi-read kernel alongside the one-read reference path. PrepareBatch
// compiles the same batch-invariant sweep program as Prepare and returns
// both entry points; the caller picks per run (the batched path whenever
// no probe is attached).
type BatchEngine interface {
	Engine
	// PrepareBatch compiles the sweep program once and returns the
	// sequential reference ReadFunc plus the lockstep BatchReadFunc.
	// The validation contract matches Prepare.
	PrepareBatch(sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (ReadFunc, BatchReadFunc, error)
}

// lockstepWidth is the number of reads resident in one lockstep group.
// Eight reads give the out-of-order core enough independent RNG/trig/
// field dependency chains to hide each chain's latency while the group's
// struct-of-arrays spin state still fits comfortably in L2 for the
// paper's embedded problem sizes.
const lockstepWidth = 8

// sweepTable is the batch-shared sweep program: for each Monte-Carlo
// sweep, the schedule time, anneal fraction and energy scales every read
// will see there. Engines extend it with their own derived columns
// (temporal coupling, move scales) in Prepare.
type sweepTable struct {
	duration float64
	t        []float64 // μs into the schedule
	s        []float64 // anneal fraction s(t)
	a        []float64 // transverse-field scale A(s)
	b        []float64 // problem scale B(s)
}

func newSweepTable(sc *Schedule, prof Profile, sweepsPerMicrosecond float64) (*sweepTable, error) {
	sweeps, err := sweepCount(sc, sweepsPerMicrosecond)
	if err != nil {
		return nil, err
	}
	tab := &sweepTable{
		duration: sc.Duration(),
		t:        make([]float64, sweeps),
		s:        make([]float64, sweeps),
		a:        make([]float64, sweeps),
		b:        make([]float64, sweeps),
	}
	for i := 0; i < sweeps; i++ {
		t := tab.duration * float64(i) / float64(sweeps-1)
		s := sc.At(t)
		tab.t[i] = t
		tab.s[i] = s
		tab.a[i] = prof.A(s)
		tab.b[i] = prof.B(s)
	}
	return tab, nil
}

func (tab *sweepTable) sweeps() int { return len(tab.t) }

// sweepCount converts a schedule duration to an integer sweep count
// (at least 1 per schedule point segment).
func sweepCount(sc *Schedule, sweepsPerMicrosecond float64) (int, error) {
	if sweepsPerMicrosecond <= 0 {
		return 0, fmt.Errorf("annealer: sweeps per microsecond must be positive")
	}
	n := int(sc.Duration() * sweepsPerMicrosecond)
	if n < 2 {
		n = 2
	}
	return n, nil
}
