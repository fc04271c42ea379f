package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/annealer"
	"repro/internal/mimo"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// This file implements the reverse-anneal detector. Its single-arm form
// is the paper's §4.1 prototype: one reverse anneal seeded by one
// classical candidate. Its general form is flexible-parallelism ensemble
// RA detection (X-ResQ, the authors' follow-up to the paper): a frame
// fans out into K×G arms — the top-K classical candidates × a G-point
// s_p schedule grid — and the arms' read ensembles are fused into
// per-spin soft output (mimo.FuseLLRs) for the channel decoder, with the
// best state across all arms and candidates as the hard answer.

// Ensemble bounds, wide enough for every configuration the experiments
// sweep while keeping a mis-parsed flag from planning millions of arms.
const (
	// MaxEnsembleK caps the classical-candidate count per frame.
	MaxEnsembleK = 64
	// MaxSpGridSize caps the s_p schedule grid size.
	MaxSpGridSize = 16
)

// EnsembleArm identifies one RA arm of the ensemble: which classical
// candidate seeds it and which grid entry sets its switch point.
type EnsembleArm struct {
	Candidate int `json:"candidate"`
	SpIndex   int `json:"sp_index"`
}

// PlanArms enumerates the K×G arm grid in canonical candidate-major
// order: (0,0), (0,1), …, (0,G−1), (1,0), …. Every (candidate, s_p)
// pair appears exactly once, and arm index 0 is always (candidate 0,
// grid entry 0) — the single-RA arm the ensemble strictly extends.
func PlanArms(k, gridSize int) []EnsembleArm {
	if k < 1 || gridSize < 1 {
		return nil
	}
	arms := make([]EnsembleArm, 0, k*gridSize)
	for c := 0; c < k; c++ {
		for g := 0; g < gridSize; g++ {
			arms = append(arms, EnsembleArm{Candidate: c, SpIndex: g})
		}
	}
	return arms
}

// DefaultSpGrid is the s_p grid the ensemble flags default to: the
// paper's working point bracketed inside its 0.33–0.49 window plus one
// step above, so arms disagree enough for fusion to matter.
func DefaultSpGrid() []float64 { return []float64{0.37, 0.45, 0.53} }

// ParseSpGrid parses a comma-separated s_p grid flag ("0.37,0.45,0.53")
// and validates it with ValidateSpGrid.
func ParseSpGrid(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	grid := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad s_p grid entry %q: %v", p, err)
		}
		grid = append(grid, v)
	}
	if err := ValidateSpGrid(grid); err != nil {
		return nil, err
	}
	return grid, nil
}

// ValidateSpGrid checks an ensemble s_p grid: non-empty, bounded, every
// entry strictly inside (0, 1), no duplicates (a duplicated entry would
// double an arm's (candidate, s_p) pair).
func ValidateSpGrid(grid []float64) error {
	if len(grid) == 0 {
		return fmt.Errorf("core: empty s_p grid")
	}
	if len(grid) > MaxSpGridSize {
		return fmt.Errorf("core: s_p grid of %d entries exceeds the cap of %d", len(grid), MaxSpGridSize)
	}
	for i, sp := range grid {
		if math.IsNaN(sp) || sp <= 0 || sp >= 1 {
			return fmt.Errorf("core: s_p grid entry %d (%g) out of (0, 1)", i, sp)
		}
		for j := 0; j < i; j++ {
			if grid[j] == sp {
				return fmt.Errorf("core: s_p grid entries %d and %d duplicate %g", j, i, sp)
			}
		}
	}
	return nil
}

// TopKCandidates produces the ensemble's K classical candidates for a
// reduced problem, deterministically from r. Candidate 0 is always the
// default greedy-search state (GreedyModule{} — the §4.1 prototype's
// single-RA seed); the rest are drawn from a fixed generation order —
// the ascending greedy order, the zero-forcing linear detector, then
// simulated-annealing restarts on r's "sa" stream — deduplicated and
// ranked by ascending energy.
func TopKCandidates(red *mimo.Reduction, k int, r *rng.Source) ([][]int8, error) {
	if k < 1 || k > MaxEnsembleK {
		return nil, fmt.Errorf("core: ensemble K %d out of [1, %d]", k, MaxEnsembleK)
	}
	is := red.Ising
	base := qubo.GreedySearchIsing(is, qubo.OrderDescending)
	cands := [][]int8{base}
	if k == 1 {
		return cands, nil
	}
	seen := func(s []int8) bool {
		for _, c := range cands {
			if spinsEqual(c, s) {
				return true
			}
		}
		return false
	}
	type ranked struct {
		spins  []int8
		energy float64
	}
	var pool []ranked
	add := func(s []int8) {
		if len(s) != is.N || seen(s) {
			return
		}
		cands = append(cands, s) // reserve for dedup; replaced by ranked order below
		pool = append(pool, ranked{spins: s, energy: is.Energy(s)})
	}
	add(qubo.GreedySearchIsing(is, qubo.OrderAscending))
	if p := red.Problem(); p != nil {
		if syms, err := (mimo.ZeroForcing{}).Detect(p); err == nil {
			if s, err := red.EncodeSymbols(syms); err == nil {
				add(s)
			}
		}
	}
	sa := r.SplitString("sa")
	for i := 0; len(pool) < k-1 && i < 4*k+16; i++ {
		add(qubo.SimulatedAnnealing(is, sa.Split(uint64(i)), qubo.SAOptions{}).Spins)
	}
	// Rank the non-base pool by quality; the base candidate keeps slot 0
	// regardless (the collapse anchor), ties keep generation order.
	sort.SliceStable(pool, func(a, b int) bool { return pool[a].energy < pool[b].energy })
	out := make([][]int8, 1, k)
	out[0] = base
	for _, p := range pool {
		if len(out) == k {
			break
		}
		out = append(out, p.spins)
	}
	// A tiny problem can exhaust its distinct-candidate supply; pad by
	// cycling so the arm plan keeps its exactly-once (candidate, s_p)
	// shape with deterministic content.
	for i := 0; len(out) < k; i++ {
		out = append(out, append([]int8(nil), out[i%len(out)]...))
	}
	return out, nil
}

func spinsEqual(a, b []int8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Ensemble is the reverse-anneal detector. The zero value is exactly
// the paper's §4.1 prototype: a sequential classical→quantum
// pre-processing structure where the Greedy Search candidate initializes
// one Reverse Annealing run (K=1, grid {0.45}, t_p = 1 μs, 100 reads) and
// the lowest-energy state seen — the candidate included — is the answer.
// Every K>1 or longer grid strictly extends that run with extra arms on
// independent RNG streams.
type Ensemble struct {
	// Classical produces candidate 0, the state arm 0 is seeded with
	// (default: the greedy-search candidate of TopKCandidates). Further
	// candidates come from TopKCandidates.
	Classical ClassicalModule
	// K is the classical-candidate count (default 1, max MaxEnsembleK).
	K int
	// SpGrid is the s_p switch-point grid (default {0.45}).
	SpGrid []float64
	// Tp is the pause duration in μs shared by all arms (default 1).
	Tp float64
	// NumReads is the per-ARM read count (default 100).
	NumReads int
	// Beta is the fusion re-weighting sharpness (≤ 0: scale-free default
	// from the pooled energy spread — see mimo.FuseLLRs).
	Beta float64
	// Config bundles the simulated-device settings shared by all arms.
	Config AnnealConfig
	// FallbackOnFault degrades per arm: a faulted arm contributes no
	// samples but the frame still answers from the surviving arms (or
	// the best classical candidate when every arm faults). Without it a
	// device fault fails the solve.
	FallbackOnFault bool
}

// Name identifies the solver: "<module>+ra" for the single-arm
// prototype, "<module>+ra-ensemble[k=K,g=G]" otherwise.
func (e *Ensemble) Name() string {
	cfg := e.withDefaults()
	m := "gs"
	if cfg.Classical != nil {
		m = cfg.Classical.Name()
	}
	if cfg.K == 1 && len(cfg.SpGrid) == 1 {
		return m + "+ra"
	}
	return fmt.Sprintf("%s+ra-ensemble[k=%d,g=%d]", m, cfg.K, len(cfg.SpGrid))
}

func (e *Ensemble) withDefaults() Ensemble {
	out := *e
	if out.K == 0 {
		out.K = 1
	}
	if len(out.SpGrid) == 0 {
		out.SpGrid = []float64{0.45}
	}
	if out.Tp == 0 {
		out.Tp = 1
	}
	if out.NumReads <= 0 {
		out.NumReads = 100
	}
	return out
}

// ArmOutcome reports one arm's run.
type ArmOutcome struct {
	Arm EnsembleArm
	// Sp is the arm's switch point (SpGrid[Arm.SpIndex]) and
	// ScheduleDuration one read's schedule length at it (μs).
	Sp               float64
	ScheduleDuration float64
	// InitialState and InitialEnergy describe the arm's candidate.
	InitialState  []int8
	InitialEnergy float64
	// Best and Samples are the arm's anneal output (empty when faulted).
	Best    qubo.Sample
	Samples []qubo.Sample
	// AnnealTime, BrokenChainRate and FaultStats carry the arm's device
	// accounting.
	AnnealTime      float64
	BrokenChainRate float64
	FaultStats      annealer.FaultStats
	// Fault is the device fault a degraded arm recovered from (nil for
	// healthy arms).
	Fault error
}

// EnsembleOutcome is one frame's ensemble solve: the fused/hard answer
// in the embedded Outcome (Best is the minimum across every arm's reads
// and every candidate) plus the per-arm detail and the fused soft
// output.
type EnsembleOutcome struct {
	Outcome
	Arms []ArmOutcome
	// FusedLLRs is the per-spin soft output fused across every surviving
	// arm's reads (nil when every arm faulted).
	FusedLLRs []float64
}

// Solve fans the frame into K×G arms, runs them as shared-schedule
// batches over one prepared problem per grid entry (the per-problem
// compile is paid G times, not K×G), and fuses the reads.
//
// Determinism: the classical module draws from r's "classical" split,
// arm 0 runs on r's "quantum" split, every further arm on its own
// "ensemble/arm" split, and fusion is canonical-order — so results are a
// pure function of (problem, config, r), and adding arms never changes
// what arm 0 computes.
func (e *Ensemble) Solve(red *mimo.Reduction, r *rng.Source) (*EnsembleOutcome, error) {
	cfg := e.withDefaults()
	if err := ValidateSpGrid(cfg.SpGrid); err != nil {
		return nil, err
	}
	cands, err := TopKCandidates(red, cfg.K, r.SplitString("classical"))
	if err != nil {
		return nil, err
	}
	if cfg.Classical != nil {
		if cands[0], err = cfg.Classical.Initialize(red, r.SplitString("classical")); err != nil {
			return nil, fmt.Errorf("core: classical module: %w", err)
		}
	}
	for _, c := range cands {
		if len(c) != red.NumSpins() {
			return nil, fmt.Errorf("core: candidate has %d spins for %d-spin problem", len(c), red.NumSpins())
		}
	}
	arms := PlanArms(cfg.K, len(cfg.SpGrid))

	// One lease + one prepared problem per grid entry; all K candidate
	// arms of that entry run RunPreparedMulti against it.
	type gridSession struct {
		sc    *annealer.Schedule
		lease *annealer.Lease
		prep  *annealer.Prepared
	}
	sessions := make([]gridSession, len(cfg.SpGrid))
	for g, sp := range cfg.SpGrid {
		sc, err := annealer.Reverse(sp, cfg.Tp)
		if err != nil {
			return nil, err
		}
		p := cfg.Config.params(sc, nil, cfg.NumReads)
		var l *annealer.Lease
		if cfg.Config.QPU != nil {
			l, err = cfg.Config.QPU.Lease(p)
		} else {
			l, err = annealer.NewLease(p)
		}
		if err != nil {
			return nil, err
		}
		prep, err := l.PrepareProblem(red.Ising)
		if err != nil {
			return nil, err
		}
		sessions[g] = gridSession{sc: sc, lease: l, prep: prep}
	}

	// Arm RNG streams: arm 0 is the single-arm prototype's "quantum"
	// stream, arms beyond it get independent keyed splits.
	armRng := make([]*rng.Source, len(arms))
	extra := r.SplitString("ensemble/arm")
	for i := range arms {
		if i == 0 {
			armRng[i] = r.SplitString("quantum")
		} else {
			armRng[i] = extra.Split(uint64(i))
		}
	}

	// Group arms by grid entry, preserving arm order within each group,
	// and run each group as one multi-initial-state batch.
	results := make([]*annealer.Result, len(arms))
	armErrs := make([]error, len(arms))
	for g := range cfg.SpGrid {
		var idx []int
		var runs []annealer.PreparedRun
		for i, a := range arms {
			if a.SpIndex != g {
				continue
			}
			idx = append(idx, i)
			runs = append(runs, annealer.PreparedRun{
				InitialState: cands[a.Candidate],
				NumReads:     cfg.NumReads,
				Rng:          armRng[i],
			})
		}
		res, errs, err := sessions[g].lease.RunPreparedMulti(sessions[g].prep, runs)
		if err != nil {
			return nil, err
		}
		for j, i := range idx {
			results[i], armErrs[i] = res[j], errs[j]
		}
	}

	out := &EnsembleOutcome{Arms: make([]ArmOutcome, len(arms))}
	var firstFault error
	healthy := 0
	for i, a := range arms {
		ao := &out.Arms[i]
		ao.Arm = a
		ao.Sp = cfg.SpGrid[a.SpIndex]
		ao.ScheduleDuration = sessions[a.SpIndex].sc.Duration()
		ao.InitialState = cands[a.Candidate]
		ao.InitialEnergy = red.Ising.Energy(cands[a.Candidate])
		if armErrs[i] != nil {
			fe, isFault := annealer.AsFault(armErrs[i])
			if !isFault || !e.FallbackOnFault {
				return nil, armErrs[i]
			}
			ao.Fault = fe
			if firstFault == nil {
				firstFault = fe
			}
			continue
		}
		res := results[i]
		ao.Best = res.Best
		ao.Samples = res.Samples
		ao.AnnealTime = res.TotalAnnealTime
		ao.BrokenChainRate = res.BrokenChainRate
		ao.FaultStats = res.Faults
		healthy++
	}

	// The frame's hard answer: best anneal sample across every surviving
	// arm (arm order, strict improvement), then every classical candidate
	// competes — a hybrid never returns worse than its classical half.
	out.InitialState = cands[0]
	out.InitialEnergy = red.Ising.Energy(cands[0])
	if healthy == 0 {
		// Every arm faulted: the top candidate is still a complete answer.
		best := 0
		for c := 1; c < len(cands); c++ {
			if red.Ising.Energy(cands[c]) < red.Ising.Energy(cands[best]) {
				best = c
			}
		}
		out.ScheduleDuration = out.Arms[0].ScheduleDuration
		out.Best = qubo.Sample{Spins: append([]int8(nil), cands[best]...), Energy: red.Ising.Energy(cands[best])}
		out.Source = AnswerClassicalFallback
		out.Fault = firstFault
		out.Symbols = red.DecodeSpins(out.Best.Spins)
		cfg.Config.recordAnswerSource(out.Source)
		return out, nil
	}
	haveBest := false
	var weightedBreaks, sampleCount float64
	for i := range out.Arms {
		ao := &out.Arms[i]
		if ao.Fault != nil {
			continue
		}
		if !haveBest || ao.Best.Energy < out.Best.Energy {
			out.Best = ao.Best
			haveBest = true
		}
		out.Samples = append(out.Samples, ao.Samples...)
		out.AnnealTime += ao.AnnealTime
		weightedBreaks += ao.BrokenChainRate * float64(len(ao.Samples))
		sampleCount += float64(len(ao.Samples))
		out.FaultStats.ReadTimeouts += ao.FaultStats.ReadTimeouts
		out.FaultStats.ChainBreakStorms += ao.FaultStats.ChainBreakStorms
		out.FaultStats.CalibrationDrifts += ao.FaultStats.CalibrationDrifts
		if out.ScheduleDuration == 0 {
			out.ScheduleDuration = ao.ScheduleDuration
		}
	}
	if sampleCount > 0 {
		out.BrokenChainRate = weightedBreaks / sampleCount
	}
	out.Source = AnswerQuantum
	for _, c := range cands {
		if energy := red.Ising.Energy(c); energy < out.Best.Energy {
			out.Best = qubo.Sample{Spins: append([]int8(nil), c...), Energy: energy}
			out.Source = AnswerClassicalCandidate
		}
	}
	out.Symbols = red.DecodeSpins(out.Best.Spins)

	// Fuse the surviving arms' reads into per-spin soft output.
	armSamples := make([][]qubo.Sample, 0, len(out.Arms))
	for i := range out.Arms {
		if out.Arms[i].Fault == nil {
			armSamples = append(armSamples, out.Arms[i].Samples)
		}
	}
	if llrs, err := mimo.FuseLLRs(armSamples, cfg.Beta, 0); err == nil {
		out.FusedLLRs = llrs
	}
	cfg.Config.recordAnswerSource(out.Source)
	return out, nil
}
