package pipeline

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/annealer"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/modulation"
	"repro/internal/rng"
)

// flakyStage fails the first failuresFor[Seq] attempts of each frame and
// charges a constant service time per attempt, success or not.
type flakyStage struct {
	micros      float64
	failuresFor map[int]int
}

func (s *flakyStage) Name() string { return "flaky" }

func (s *flakyStage) Process(f *Frame) (float64, error) {
	if f.Attempt < s.failuresFor[f.Seq] {
		return s.micros, fmt.Errorf("injected failure (attempt %d)", f.Attempt)
	}
	return s.micros, nil
}

// stubFallback charges a constant recovery cost, or refuses.
type stubFallback struct {
	micros float64
	fail   bool
	calls  int
}

func (s *stubFallback) Name() string { return "stub" }

func (s *stubFallback) Recover(f *Frame) (float64, error) {
	s.calls++
	if s.fail {
		return 0, fmt.Errorf("fallback refused")
	}
	return s.micros, nil
}

// TestRetryAdversarial drives the retry policy through its failure table:
// recover-on-retry, exhaustion→fallback, deadline abort, fallback failure,
// and exhaustion without a fallback.
func TestRetryAdversarial(t *testing.T) {
	cases := []struct {
		name        string
		failures    int     // stage failures before success
		priorMicros float64 // service already charged by earlier stages
		deadline    float64
		noFallback  bool
		fallbackErr bool

		wantErr      bool
		wantCharged  float64
		wantAttempts int
		wantRetries  int
		wantFellBack bool
		wantReason   string
	}{
		{
			name: "first-attempt-success", failures: 0,
			wantCharged: 7, wantAttempts: 1,
		},
		{
			name: "recovers-on-retry", failures: 1,
			// attempt 7, backoff 5, attempt 7
			wantCharged: 19, wantAttempts: 2, wantRetries: 1,
		},
		{
			name: "exhaustion-falls-back", failures: 99,
			// 3 attempts × 7 + backoff 5 + 10, then fallback 2
			wantCharged: 38, wantAttempts: 3, wantRetries: 2,
			wantFellBack: true, wantReason: "retries-exhausted",
		},
		{
			name: "deadline-aborts-to-fallback", failures: 99,
			priorMicros: 8, deadline: 10,
			// attempt0 runs (7), backoff 5 → 8+12 ≥ 10 → abort, fallback 2
			wantCharged: 14, wantAttempts: 1,
			wantFellBack: true, wantReason: "deadline",
		},
		{
			name: "dead-before-first-attempt", failures: 0,
			priorMicros: 20, deadline: 10,
			// no attempt ever runs; fallback answers at its own cost
			wantCharged: 2, wantAttempts: 0,
			wantFellBack: true, wantReason: "deadline",
		},
		{
			name: "no-fallback-exhaustion-errors", failures: 99, noFallback: true,
			wantErr: true, wantAttempts: 3, wantRetries: 2,
		},
		{
			name: "fallback-failure-errors", failures: 99, fallbackErr: true,
			wantErr: true, wantAttempts: 3, wantRetries: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := &Retry{
				Stage:         &flakyStage{micros: 7, failuresFor: map[int]int{0: tc.failures}},
				MaxAttempts:   3,
				BackoffMicros: 5,
			}
			if !tc.noFallback {
				rt.Fallback = &stubFallback{micros: 2, fail: tc.fallbackErr}
			}
			f := &Frame{Seq: 0, Deadline: tc.deadline, ServiceTimes: []float64{tc.priorMicros}}
			charged, err := rt.Process(f)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if !tc.wantErr && math.Abs(charged-tc.wantCharged) > 1e-9 {
				t.Fatalf("charged %v, want %v", charged, tc.wantCharged)
			}
			if f.Stats.Attempts != tc.wantAttempts || f.Stats.Retries != tc.wantRetries {
				t.Fatalf("attempts/retries %d/%d, want %d/%d",
					f.Stats.Attempts, f.Stats.Retries, tc.wantAttempts, tc.wantRetries)
			}
			if f.Stats.FellBack != tc.wantFellBack || f.Stats.FallbackReason != tc.wantReason {
				t.Fatalf("fellback %v (%q), want %v (%q)",
					f.Stats.FellBack, f.Stats.FallbackReason, tc.wantFellBack, tc.wantReason)
			}
			if f.Attempt != 0 {
				t.Fatal("Frame.Attempt not reset after retry loop")
			}
		})
	}
}

// TestPipelineZeroFrames: an empty frame stream runs and schedules to an
// all-zero report rather than erroring or dividing by zero.
func TestPipelineZeroFrames(t *testing.T) {
	p := &Pipeline{Stages: []Stage{&fixedStage{name: "a", micros: 1}}}
	out, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("collected %d frames from empty input", len(out))
	}
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 0 || rep.MeanLatency != 0 || rep.DeadlineMissRate != 0 ||
		rep.FallbackRate != 0 || len(rep.Frames) != 0 {
		t.Fatalf("empty run produced non-zero report: %+v", rep)
	}
}

// TestPipelineMidStreamFailureAccounting: a stage that fails only for some
// mid-stream frames, wrapped in retry+fallback, still delivers every frame
// to the collector with complete accounting.
func TestPipelineMidStreamFailureAccounting(t *testing.T) {
	fb := &stubFallback{micros: 1}
	p := &Pipeline{Stages: []Stage{
		&fixedStage{name: "pre", micros: 2},
		&Retry{
			Stage:         &flakyStage{micros: 5, failuresFor: map[int]int{3: 99, 4: 1, 5: 99}},
			MaxAttempts:   2,
			BackoffMicros: 1,
			Fallback:      fb,
		},
	}}
	frames := simpleFrames(10, 1, 0)
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("collector received %d/10 frames", len(out))
	}
	for _, f := range out {
		if f.Err != nil {
			t.Fatalf("frame %d errored despite fallback: %v", f.Seq, f.Err)
		}
	}
	if !out[3].Stats.FellBack || !out[5].Stats.FellBack {
		t.Fatal("persistently failing frames did not fall back")
	}
	if out[4].Stats.FellBack || out[4].Stats.Retries != 1 {
		t.Fatal("transiently failing frame should recover via retry, not fallback")
	}
	if out[0].Stats.Attempts != 1 || out[0].Stats.FellBack {
		t.Fatal("healthy frame accounting polluted")
	}
	if fb.calls != 2 {
		t.Fatalf("fallback invoked %d times, want 2", fb.calls)
	}
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallbacks != 2 || rep.Retries != 3 {
		t.Fatalf("report fallbacks/retries %d/%d, want 2/3", rep.Fallbacks, rep.Retries)
	}
	if math.Abs(rep.FallbackRate-0.2) > 1e-9 {
		t.Fatalf("fallback rate %v", rep.FallbackRate)
	}
	if rep.BackoffMicros <= 0 {
		t.Fatal("backoff not aggregated")
	}
}

// TestPipelineAllFramesMissDeadline: a saturated stream where every frame
// blows its ARQ budget still completes and reports a 100% miss rate.
func TestPipelineAllFramesMissDeadline(t *testing.T) {
	p := &Pipeline{Stages: []Stage{
		&Retry{Stage: &flakyStage{micros: 50, failuresFor: nil}, MaxAttempts: 2,
			Fallback: &stubFallback{micros: 1}, DisableDeadlineAbort: true},
	}}
	frames := simpleFrames(8, 1, 10) // 50 μs service vs 10 μs deadline
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineMissRate != 1 {
		t.Fatalf("miss rate %v, want 1", rep.DeadlineMissRate)
	}
	if rep.Fallbacks != 0 {
		t.Fatal("healthy stage should not fall back even when deadlines miss")
	}
	for _, ft := range rep.Frames {
		if !ft.Missed {
			t.Fatalf("frame %d not marked missed", ft.Seq)
		}
	}
}

// TestPipelineFallbackFailurePropagates: when the fallback itself fails,
// the frame carries the error to the collector and Schedule refuses the
// batch — a loud failure, not silent data loss.
func TestPipelineFallbackFailurePropagates(t *testing.T) {
	p := &Pipeline{Stages: []Stage{
		&Retry{Stage: &flakyStage{micros: 1, failuresFor: map[int]int{1: 99}},
			MaxAttempts: 2, Fallback: &stubFallback{fail: true}},
	}}
	frames := simpleFrames(3, 1, 0)
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatal("failed frame dropped from collector")
	}
	if out[1].Err == nil {
		t.Fatal("fallback failure not recorded on frame")
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatal("healthy frames contaminated")
	}
	if _, err := p.Schedule(out); err == nil {
		t.Fatal("Schedule accepted a failed frame")
	}
}

// TestDetectionPipelineRetryFallbackAcceptance is the PR's headline
// criterion: with a QPU failing half its programming cycles, the
// retry+fallback pipeline answers every frame — zero errors — with
// non-zero retry and fallback counts.
func TestDetectionPipelineRetryFallbackAcceptance(t *testing.T) {
	insts, err := instance.Corpus(instance.Spec{
		Users: 3, Scheme: modulation.QAM16, Channel: channel.UnitGainRandomPhase,
	}, 21, 12)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := GenerateFrames(insts, 400, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.AnnealConfig{
		SweepsPerMicrosecond: 60,
		Faults:               annealer.FaultModel{ProgrammingFailureRate: 0.5},
	}
	p := &Pipeline{Stages: []Stage{
		&ClassicalStage{Rng: rng.New(1)},
		&Retry{
			Stage:         &EnsembleStage{ReadsPerArm: 30, Config: cfg, Rng: rng.New(2)},
			MaxAttempts:   2,
			BackoffMicros: 10,
			Fallback:      &ClassicalFallback{},
		},
	}}
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range out {
		if f.Err != nil {
			t.Fatalf("frame %d errored: %v", f.Seq, f.Err)
		}
		pl := f.Payload.(*DetectionPayload)
		if pl.Symbols == nil {
			t.Fatalf("frame %d has no answer", f.Seq)
		}
		if f.Stats.FellBack && pl.Source != core.AnswerClassicalFallback {
			t.Fatalf("frame %d fell back but source is %v", f.Seq, pl.Source)
		}
	}
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 {
		t.Fatal("50% failure rate produced zero retries")
	}
	if rep.Fallbacks == 0 {
		t.Fatal("50% failure rate with 2 attempts produced zero fallbacks")
	}
	if rep.BackoffMicros <= 0 {
		t.Fatal("retries charged no backoff")
	}
	t.Logf("retries=%d fallbacks=%d backoff=%.0fμs", rep.Retries, rep.Fallbacks, rep.BackoffMicros)
}

// TestRetryWrapperIsTransparentWithoutFaults: wrapping the quantum stage
// in Retry must not change a single bit of a healthy run — same service
// times, same symbols, same energies, zero retries/fallbacks.
func TestRetryWrapperIsTransparentWithoutFaults(t *testing.T) {
	mk := func(wrap bool) ([]*Frame, *Report) {
		insts, err := instance.Corpus(instance.Spec{
			Users: 3, Scheme: modulation.QAM16, Channel: channel.UnitGainRandomPhase,
		}, 23, 8)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := GenerateFrames(insts, 400, 5_000)
		if err != nil {
			t.Fatal(err)
		}
		var qs Stage = &EnsembleStage{
			ReadsPerArm: 30,
			Config:      core.AnnealConfig{SweepsPerMicrosecond: 60},
			Rng:         rng.New(2),
		}
		if wrap {
			qs = &Retry{Stage: qs, MaxAttempts: 3, BackoffMicros: 10, Fallback: &ClassicalFallback{}}
		}
		p := &Pipeline{Stages: []Stage{&ClassicalStage{Rng: rng.New(1)}, qs}}
		out, err := p.Run(frames)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Schedule(out)
		if err != nil {
			t.Fatal(err)
		}
		return out, rep
	}
	plain, plainRep := mk(false)
	wrapped, wrappedRep := mk(true)
	if wrappedRep.Retries != 0 || wrappedRep.Fallbacks != 0 || wrappedRep.BackoffMicros != 0 {
		t.Fatalf("healthy wrapped run recorded retries=%d fallbacks=%d",
			wrappedRep.Retries, wrappedRep.Fallbacks)
	}
	for i := range plain {
		pp := plain[i].Payload.(*DetectionPayload)
		wp := wrapped[i].Payload.(*DetectionPayload)
		if pp.BestEnergy != wp.BestEnergy || pp.SymbolErrors != wp.SymbolErrors {
			t.Fatalf("frame %d solution diverged under retry wrapper", i)
		}
		for j := range pp.Symbols {
			if pp.Symbols[j] != wp.Symbols[j] {
				t.Fatalf("frame %d symbol %d diverged", i, j)
			}
		}
		for s := range plain[i].ServiceTimes {
			if plain[i].ServiceTimes[s] != wrapped[i].ServiceTimes[s] {
				t.Fatalf("frame %d stage %d service time diverged: %v vs %v",
					i, s, plain[i].ServiceTimes[s], wrapped[i].ServiceTimes[s])
			}
		}
	}
	if plainRep.MeanLatency != wrappedRep.MeanLatency || plainRep.Makespan != wrappedRep.Makespan {
		t.Fatal("healthy timing diverged under retry wrapper")
	}
}
