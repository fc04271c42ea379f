package annealer

import (
	"testing"

	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
)

func allocTestIsing(t *testing.T) *qubo.Ising {
	t.Helper()
	in, err := instance.Synthesize(instance.Spec{Users: 8, Scheme: modulation.QAM16, Seed: 0xBE9C})
	if err != nil {
		t.Fatal(err)
	}
	return in.Reduction.Ising
}

// skipUnderRace skips an allocation pin when the race detector is on:
// its sync.Pool drops a random share of Puts, so pooled scratch is
// re-allocated at random and the count is not a property of the code.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are random under the race detector (sync.Pool drops Puts)")
	}
}

// TestRunBatchAllocs pins the steady-state allocation count of a full
// 32-read Run on the benchmark workload. The lockstep batch kernel and
// the per-read working sets draw their scratch from package-level pools
// that outlive the one-shot lease, so the remaining allocations are the
// returned samples, the batch's output blocks and a handful of
// compile-time slices — measured at 33. The bound leaves ≈2× headroom
// for runtime jitter but fails loudly if per-read or per-lease scratch
// allocation creeps back in (the pre-batch code cost 556 allocs/op, and
// per-lease pools 72; see BenchmarkRun's committed baseline).
func TestRunBatchAllocs(t *testing.T) {
	skipUnderRace(t)
	is := allocTestIsing(t)
	fa, _ := Forward(1, 0.41, 1)
	p := Params{Schedule: fa, NumReads: 32, SweepsPerMicrosecond: 30}
	var seed uint64
	if _, err := Run(is, p, rng.New(1)); err != nil { // warm scratch pools
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := Run(is, p, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if got > 66 {
		t.Errorf("32-read Run allocates %.0f objects, want ≤ 66 (steady state is ~33)", got)
	}
}

// TestRunPreparedCacheHitAllocs pins what a cache-hit serve costs on the
// embedded path: RunPrepared against an already-compiled Prepared skips
// clique embedding, chain-strength scan, physical coefficient layout and
// CSR normalization, leaving ~14 allocations versus ~4100 for an
// uncached PrepareProblem + RunPrepared of the same batch. Both sides
// are pinned so the cache's value and the hit path's cost are each
// guarded.
func TestRunPreparedCacheHitAllocs(t *testing.T) {
	skipUnderRace(t)
	is := allocTestIsing(t)
	fa, _ := Forward(1, 0.41, 1)
	p := Params{Schedule: fa, NumReads: 32, SweepsPerMicrosecond: 30}
	l, err := NewQPU2000Q().Lease(p)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := l.PrepareProblem(is)
	if err != nil {
		t.Fatal(err)
	}
	var seed uint64
	if _, err := l.RunPrepared(prep, nil, 32, rng.New(1)); err != nil { // warm pools
		t.Fatal(err)
	}
	hit := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := l.RunPrepared(prep, nil, 32, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if hit > 28 {
		t.Errorf("cache-hit RunPrepared allocates %.0f objects, want ≤ 28 (steady state is ~14)", hit)
	}
	uncached := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := prepareAndRun(l, is, nil, 32, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if uncached < 10*hit {
		t.Errorf("uncached PrepareProblem + RunPrepared allocates %.0f objects vs %.0f on a hit; the compile the cache elides has shrunk below 10× — re-baseline these pins", uncached, hit)
	}
}
