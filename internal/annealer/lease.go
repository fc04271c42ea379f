// Device handle / lease API: a Lease pins one device session's validated
// parameters and the engine's compiled sweep program so a serving layer
// can run MANY problems through the same device without re-validating or
// re-running Engine.Prepare per call. Run and QPU.Run are one-shot leases
// that pay the Prepare compile (schedule tables, per-sweep
// transcendentals) once per batch; a long-lived lease pays it once per
// (device, schedule) for an arbitrarily long stream of batches — the
// amortization a multi-QPU fleet dispatcher needs when frames arrive
// faster than schedules change.
package annealer

import (
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Lease is a prepared session on one simulated device: a validated
// Params template plus the engine's batch-invariant compiled ReadFunc.
// A lease is safe for concurrent RunPrepared calls, on one Prepared or
// many: the compiled program and prepared problems are read-only, and
// per-read scratch comes from package-level pools that outlive every
// batch and lease. An execution layer may therefore run the frames of
// one batch on several workers at once (internal/fleet does).
type Lease struct {
	p     Params
	read  ReadFunc
	bread BatchReadFunc // lockstep kernel; nil when the engine has none
	qpu   *QPU
}

// NewLease validates p once, compiles the engine's sweep program, and
// returns the reusable session. It is the only place an engine's sweep
// program is compiled. p.InitialState and p.NumReads act as per-call
// defaults that RunPrepared's arguments override; every other field
// (schedule, engine, profile, noise, fault model, telemetry hooks) is
// fixed for the lease's lifetime.
func NewLease(p Params) (*Lease, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	if be, ok := p.Engine.(BatchEngine); ok {
		read, bread, err := be.PrepareBatch(p.Schedule, *p.Profile, p.SweepsPerMicrosecond)
		if err != nil {
			return nil, err
		}
		return &Lease{p: p, read: read, bread: bread}, nil
	}
	read, err := p.Engine.Prepare(p.Schedule, *p.Profile, p.SweepsPerMicrosecond)
	if err != nil {
		return nil, err
	}
	return &Lease{p: p, read: read}, nil
}

// Lease returns a prepared session whose runs take the full hardware
// path: minor-embedding onto the QPU's Chimera graph, physical anneal,
// majority-vote unembedding. The QPU knows its own overheads, so the
// span-layout timing model defaults to its programming and readout
// times unless p pins one (telemetry only — results unaffected).
func (q *QPU) Lease(p Params) (*Lease, error) {
	l, err := NewLease(p)
	if err != nil {
		return nil, err
	}
	l.qpu = q
	if l.p.Timing == nil {
		l.p.Timing = &DeviceTiming{ProgrammingMicros: q.ProgrammingTime, ReadoutMicros: q.ReadoutTime}
	}
	return l, nil
}

// Schedule returns the anneal program the lease was prepared for.
func (l *Lease) Schedule() *Schedule { return l.p.Schedule }

// runOnce compiles is without snapshotting it and runs one batch with the
// lease's own initial state and read count: the body of Run and QPU.Run.
func (l *Lease) runOnce(is *qubo.Ising, r *rng.Source) (*Result, error) {
	prep, err := l.compile(is)
	if err != nil {
		return nil, err
	}
	return l.run(&prep, l.p, r)
}
