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

// fixedStage charges a constant service time and tags the payload.
type fixedStage struct {
	name   string
	micros float64
	fail   bool
}

func (s *fixedStage) Name() string { return s.name }

func (s *fixedStage) Process(f *Frame) (float64, error) {
	if s.fail {
		return 0, fmt.Errorf("boom")
	}
	return s.micros, nil
}

func simpleFrames(n int, interval, deadline float64) []*Frame {
	frames := make([]*Frame, n)
	for i := range frames {
		frames[i] = &Frame{Seq: i, Arrival: float64(i) * interval, Deadline: deadline}
	}
	return frames
}

func TestPipelinePreservesOrder(t *testing.T) {
	p := &Pipeline{Stages: []Stage{&fixedStage{name: "a", micros: 1}, &fixedStage{name: "b", micros: 2}}}
	frames := simpleFrames(50, 0.5, 0)
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range out {
		if f.Seq != i {
			t.Fatalf("frame %d out of order", i)
		}
		if f.ServiceTimes[0] != 1 || f.ServiceTimes[1] != 2 {
			t.Fatal("service times not recorded")
		}
	}
}

func TestPipelineNoStages(t *testing.T) {
	p := &Pipeline{}
	if _, err := p.Run(simpleFrames(1, 1, 0)); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	if _, err := p.Schedule(nil); err == nil {
		t.Fatal("empty pipeline schedule accepted")
	}
}

func TestPipelineStageErrorPropagates(t *testing.T) {
	p := &Pipeline{Stages: []Stage{&fixedStage{name: "a", fail: true}, &fixedStage{name: "b", micros: 1}}}
	frames := simpleFrames(3, 1, 0)
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range out {
		if f.Err == nil {
			t.Fatal("stage error not propagated")
		}
	}
	if _, err := p.Schedule(out); err == nil {
		t.Fatal("failed frames scheduled")
	}
}

// TestScheduleSerialVsPipelined: the pipeline's makespan for two balanced
// stages approaches half the serial time — Figure 2's point.
func TestScheduleSerialVsPipelined(t *testing.T) {
	const per = 10.0
	p := &Pipeline{Stages: []Stage{&fixedStage{name: "cpu", micros: per}, &fixedStage{name: "qpu", micros: per}}}
	// All frames arrive at t=0: pure pipelining, no arrival spacing.
	frames := simpleFrames(20, 0, 0)
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	// Pipelined makespan: (n+1)·per = 210 vs serial 2·n·per = 400.
	want := float64(20+1) * per
	if math.Abs(rep.Makespan-want) > 1e-9 {
		t.Fatalf("makespan %v, want %v", rep.Makespan, want)
	}
	// The bottleneck stage is ~fully utilized.
	if rep.Utilization[1] < 0.9 {
		t.Fatalf("bottleneck utilization %v", rep.Utilization[1])
	}
}

func TestScheduleRespectsArrivals(t *testing.T) {
	p := &Pipeline{Stages: []Stage{&fixedStage{name: "a", micros: 1}}}
	frames := simpleFrames(5, 100, 0) // sparse arrivals: no queueing
	out, _ := p.Run(frames)
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, ft := range rep.Frames {
		if ft.Start[0] != float64(i)*100 {
			t.Fatalf("frame %d started at %v", i, ft.Start[0])
		}
		if math.Abs(ft.Latency-1) > 1e-9 {
			t.Fatalf("frame %d latency %v", i, ft.Latency)
		}
	}
	if rep.DeadlineMissRate != 0 {
		t.Fatal("spurious deadline misses")
	}
}

func TestScheduleDeadlineMisses(t *testing.T) {
	// Service 10 μs, arrivals every 1 μs, deadline 15 μs: the queue grows
	// and later frames miss.
	p := &Pipeline{Stages: []Stage{&fixedStage{name: "a", micros: 10}}}
	frames := simpleFrames(10, 1, 15)
	out, _ := p.Run(frames)
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Frames[len(rep.Frames)-1].Missed {
		t.Fatal("saturated queue did not miss deadlines")
	}
	if rep.Frames[0].Missed {
		t.Fatal("first frame should meet its deadline")
	}
	if rep.DeadlineMissRate <= 0 || rep.DeadlineMissRate > 1 {
		t.Fatalf("miss rate %v", rep.DeadlineMissRate)
	}
	// Latencies increase monotonically under saturation.
	for i := 1; i < len(rep.Frames); i++ {
		if rep.Frames[i].Latency < rep.Frames[i-1].Latency {
			t.Fatal("latency not increasing under saturation")
		}
	}
}

// TestBackPressure: with buffer capacity 1, a slow downstream stage
// throttles the upstream one.
func TestBackPressure(t *testing.T) {
	p := &Pipeline{
		Stages:     []Stage{&fixedStage{name: "fast", micros: 1}, &fixedStage{name: "slow", micros: 10}},
		BufferSize: 1,
	}
	frames := simpleFrames(10, 0, 0)
	out, _ := p.Run(frames)
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	// Upstream stage must not race arbitrarily far ahead: frame i cannot
	// start on "fast" before frame i−1 started on "slow".
	for i := 1; i < len(rep.Frames); i++ {
		if rep.Frames[i].Start[0]+1e-9 < rep.Frames[i-1].Start[1] {
			t.Fatalf("frame %d entered the fast stage before back-pressure allowed", i)
		}
	}
}

func TestThroughputAndStats(t *testing.T) {
	p := &Pipeline{Stages: []Stage{&fixedStage{name: "a", micros: 2}}}
	frames := simpleFrames(100, 2, 0) // perfectly matched arrival rate
	out, _ := p.Run(frames)
	rep, _ := p.Schedule(out)
	// 1 frame per 2 μs = 500k frames/s.
	if math.Abs(rep.ThroughputPerSecond-100.0/rep.Makespan*1e6) > 1e-6 {
		t.Fatal("throughput inconsistent with makespan")
	}
	if rep.MeanLatency != 2 || rep.P95Latency != 2 {
		t.Fatalf("latency stats %v/%v", rep.MeanLatency, rep.P95Latency)
	}
	if len(rep.StageNames) != 1 || rep.StageNames[0] != "a" {
		t.Fatal("stage names missing")
	}
}

// TestDetectionPipelineEndToEnd runs real channel uses through the
// GS→RA pipeline of Figure 2 and checks every frame decodes correctly
// with modelled timings recorded.
func TestDetectionPipelineEndToEnd(t *testing.T) {
	insts, err := instance.Corpus(instance.Spec{
		Users: 3, Scheme: modulation.QAM16, Channel: channel.UnitGainRandomPhase,
	}, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := GenerateFrames(insts, 500, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	cs := &ClassicalStage{Rng: rng.New(1)}
	qs := &EnsembleStage{
		ReadsPerArm: 30,
		Config:      core.AnnealConfig{SweepsPerMicrosecond: 60},
		Rng:         rng.New(2),
	}
	p := &Pipeline{Stages: []Stage{cs, qs}}
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range out {
		if f.Err != nil {
			t.Fatal(f.Err)
		}
		pl := f.Payload.(*DetectionPayload)
		if pl.SymbolErrors != 0 {
			t.Fatalf("frame %d misdecoded with %d symbol errors", f.Seq, pl.SymbolErrors)
		}
		if f.ServiceTimes[0] <= 0 || f.ServiceTimes[1] <= 0 {
			t.Fatalf("frame %d missing service times: %v", f.Seq, f.ServiceTimes)
		}
	}
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineMissRate != 0 {
		t.Fatalf("deadline misses: %v", rep.DeadlineMissRate)
	}
	// The quantum stage dominates: RA at sp=0.45 runs 2.1 μs × 30 reads.
	sc, err := annealer.Reverse(0.45, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 30 * sc.Duration(); out[0].ServiceTimes[1] != want {
		t.Fatalf("quantum service %v, model %v", out[0].ServiceTimes[1], want)
	}
}

// TestQuantumStageRequiresCandidate: the quantum stage (EnsembleStage)
// refuses a frame the classical stage never seeded instead of silently
// recomputing a candidate of its own.
func TestQuantumStageRequiresCandidate(t *testing.T) {
	insts, _ := instance.Corpus(instance.Spec{Users: 2, Scheme: modulation.QPSK}, 9, 1)
	frames, err := GenerateFrames(insts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	qs := &EnsembleStage{K: 2, ReadsPerArm: 5, Config: core.AnnealConfig{SweepsPerMicrosecond: 60}, Rng: rng.New(1)}
	p := &Pipeline{Stages: []Stage{qs}} // no classical stage
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err == nil {
		t.Fatal("quantum stage accepted a frame without a candidate")
	}
}

func TestStagePayloadTypeChecked(t *testing.T) {
	cs := &ClassicalStage{Rng: rng.New(1)}
	f := &Frame{Payload: "not a payload", ServiceTimes: make([]float64, 1)}
	if _, err := cs.Process(f); err == nil {
		t.Fatal("bad payload accepted")
	}
	qs := &EnsembleStage{Rng: rng.New(1)}
	if _, err := qs.Process(f); err == nil {
		t.Fatal("bad payload accepted by quantum stage")
	}
}

func TestGenerateFrames(t *testing.T) {
	insts, _ := instance.Corpus(instance.Spec{Users: 2, Scheme: modulation.BPSK}, 11, 3)
	frames, err := GenerateFrames(insts, 1000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatal("frame count wrong")
	}
	for i, f := range frames {
		if f.Arrival != float64(i)*1000 || f.Deadline != 3000 || f.Seq != i {
			t.Fatalf("frame %d fields wrong: %+v", i, f)
		}
	}
}

// TestScheduleReplicatedStage: doubling a bottleneck stage's units halves
// its effective service interval — Challenge 3's unit-assignment lever.
func TestScheduleReplicatedStage(t *testing.T) {
	const per = 10.0
	single := &Pipeline{Stages: []Stage{&fixedStage{name: "qpu", micros: per}}}
	frames := simpleFrames(20, 0, 0)
	out, _ := single.Run(frames)
	rep1, err := single.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	dual := &Pipeline{Stages: []Stage{&fixedStage{name: "qpu", micros: per}}, Replicas: []int{2}}
	frames2 := simpleFrames(20, 0, 0)
	out2, _ := dual.Run(frames2)
	rep2, err := dual.Schedule(out2)
	if err != nil {
		t.Fatal(err)
	}
	// 20 frames × 10 μs on 1 unit = 200; on 2 units = 100.
	if math.Abs(rep1.Makespan-200) > 1e-9 || math.Abs(rep2.Makespan-100) > 1e-9 {
		t.Fatalf("makespans %v / %v, want 200 / 100", rep1.Makespan, rep2.Makespan)
	}
	// Utilization is per-unit: both ≈ 1.
	if rep2.Utilization[0] < 0.95 || rep2.Utilization[0] > 1.0+1e-9 {
		t.Fatalf("dual utilization %v", rep2.Utilization[0])
	}
}

// TestThreeStagePipeline: classical → quantum → classical post-processing
// composes, and the modelled bound (bottleneck spacing) holds.
func TestThreeStagePipeline(t *testing.T) {
	p := &Pipeline{Stages: []Stage{
		&fixedStage{name: "pre", micros: 2},
		&fixedStage{name: "qpu", micros: 8},
		&fixedStage{name: "post", micros: 3},
	}}
	frames := simpleFrames(15, 0, 0)
	out, err := p.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Schedule(out)
	if err != nil {
		t.Fatal(err)
	}
	// Steady state: one frame per bottleneck period (8 μs); makespan =
	// fill (2) + 15·8 + drain (3) − 8 + 8 = 2 + 120 + 3.
	want := 2 + 15*8.0 + 3
	if math.Abs(rep.Makespan-want) > 1e-9 {
		t.Fatalf("makespan %v, want %v", rep.Makespan, want)
	}
	if len(rep.StageNames) != 3 {
		t.Fatal("stage names wrong")
	}
}

func TestGenerateFramesPoisson(t *testing.T) {
	insts, _ := instance.Corpus(instance.Spec{Users: 2, Scheme: modulation.BPSK}, 13, 200)
	frames, err := GenerateFramesPoisson(insts, 100, 500, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if frames[0].Arrival != 0 {
		t.Fatal("first arrival not at 0")
	}
	var sum float64
	for i := 1; i < len(frames); i++ {
		gap := frames[i].Arrival - frames[i-1].Arrival
		if gap < 0 {
			t.Fatal("arrivals not monotone")
		}
		sum += gap
	}
	mean := sum / float64(len(frames)-1)
	if mean < 70 || mean > 130 {
		t.Fatalf("mean inter-arrival %v, want ≈100", mean)
	}
	// Deterministic in the seed.
	again, err := GenerateFramesPoisson(insts, 100, 500, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if frames[i].Arrival != again[i].Arrival {
			t.Fatal("Poisson arrivals not deterministic")
		}
	}
}
