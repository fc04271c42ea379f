package fleet

import (
	"fmt"

	"repro/internal/annealer"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Sampler is the statistical-validation harness's sampling client: it
// draws anneal read batches for arbitrary problems through the same
// prepared-lease path the fleet dispatcher serves production frames on,
// rotating across a device pool so validation samples see the pool's
// hardware spread. Each device's lease pays Engine.Prepare once, exactly
// as Serve does, so drawing many small batches stays cheap.
//
// Programming failures are stripped from the leases — batch-level
// programming faults are a dispatcher concern (the fleet retries the
// whole batch); a sampling client measures per-read statistics, and the
// per-read fault classes (timeouts, storms, drift) still apply.
//
// A Sampler is deterministic: the device rotation is fixed by the call
// sequence and every read's randomness comes from the caller's rng
// stream, so a fixed seed reproduces every sample.
type Sampler struct {
	leases []*annealer.Lease
	next   int
	drawn  int
}

// NewSampler prepares one lease per device for the given anneal program.
// parallelism fans each batch's reads across goroutines (≤ 0: 1;
// results are bit-identical at any level).
func NewSampler(devs []Device, sc *annealer.Schedule, parallelism int) (*Sampler, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("fleet: sampler needs at least one device")
	}
	if sc == nil {
		return nil, fmt.Errorf("fleet: sampler needs a schedule")
	}
	if parallelism <= 0 {
		parallelism = 1
	}
	s := &Sampler{}
	for i, d := range devs {
		l, err := d.lease(sc, parallelism)
		if err != nil {
			return nil, fmt.Errorf("fleet: sampler device %d: %w", i, err)
		}
		s.leases = append(s.leases, l)
	}
	return s, nil
}

// Devices returns the pool size.
func (s *Sampler) Devices() int { return len(s.leases) }

// Drawn returns the cumulative number of reads requested so far — the
// quantity a sequential sampler's budget caps.
func (s *Sampler) Drawn() int { return s.drawn }

// Draw runs one batch of `reads` reads for the problem on the next device
// in the rotation, reverse-annealing from init when the prepared schedule
// starts classical. The returned result is exactly what the underlying
// lease produced (timed-out reads dropped, fault stats attached).
func (s *Sampler) Draw(problem *qubo.Ising, init []int8, reads int, r *rng.Source) (*annealer.Result, error) {
	if reads <= 0 {
		return nil, fmt.Errorf("fleet: sampler draw of %d reads", reads)
	}
	l := s.leases[s.next]
	s.next = (s.next + 1) % len(s.leases)
	s.drawn += reads
	prep, err := l.PrepareProblem(problem)
	if err != nil {
		return nil, err
	}
	return l.RunPrepared(prep, init, reads, r)
}
