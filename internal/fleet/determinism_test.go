package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/annealer"
	"repro/internal/telemetry"
)

// determinismScenario is a moderately busy mixed fleet: a logical device,
// an embedded QPU device, and a noisy device, serving 4 streams of 5
// frames with retries and deadline pressure in play.
func determinismScenario(t testing.TB, faults bool) (Config, []Request) {
	t.Helper()
	prof := annealer.CalibratedProfile()
	devs := []Device{
		{SweepsPerMicrosecond: 30},
		{QPU: annealer.NewQPU2000Q(), Profile: &prof, SweepsPerMicrosecond: 30},
		{SweepsPerMicrosecond: 30, ICE: annealer.DWave2000QICE()},
	}
	if faults {
		devs[0].Faults = annealer.FaultModel{ProgrammingFailureRate: 0.4}
		devs[2].Faults = annealer.FaultModel{ReadTimeoutRate: 0.2, ChainBreakStormRate: 0.1, CalibrationDriftRate: 0.1}
	}
	cfg := Config{
		Devices:  devs,
		NumReads: 6,
		BatchMax: 3,
		Seed:     0xF1EE7,
	}
	reqs := uniformRequests(t, 4, 5, 200, 40_000)
	return cfg, reqs
}

// serveArtifacts runs the scenario and returns the two export surfaces
// the determinism contract covers: marshaled outcomes and trace JSONL.
func serveArtifacts(t testing.TB, workers int, faults bool) (outcomes, trace []byte) {
	t.Helper()
	cfg, reqs := determinismScenario(t, faults)
	cfg.Workers = workers
	cfg.Trace = telemetry.NewTracer()
	res, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// TestFleetDeterminism is the gating regression for the determinism
// contract: outcomes and exported traces must be bit-identical for worker
// counts 1, 4, and 16, and across repeated runs, with faults off and on.
func TestFleetDeterminism(t *testing.T) {
	for _, faults := range []bool{false, true} {
		name := "faults-off"
		if faults {
			name = "faults-on"
		}
		t.Run(name, func(t *testing.T) {
			refOut, refTrace := serveArtifacts(t, 1, faults)
			if len(refTrace) == 0 {
				t.Fatal("trace export is empty")
			}
			for _, workers := range []int{1, 4, 16} {
				out, trace := serveArtifacts(t, workers, faults)
				if !bytes.Equal(out, refOut) {
					t.Fatalf("outcomes diverge at %d workers", workers)
				}
				if !bytes.Equal(trace, refTrace) {
					t.Fatalf("trace export diverges at %d workers", workers)
				}
			}
		})
	}
}

// TestFleetDeterminismSeedSensitivity guards against the opposite failure:
// a scheduler that ignores its seed would pass the identity checks above
// while serving canned results.
func TestFleetDeterminismSeedSensitivity(t *testing.T) {
	cfg, reqs := determinismScenario(t, true)
	a, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	b, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Outcomes)
	jb, _ := json.Marshal(b.Outcomes)
	if bytes.Equal(ja, jb) {
		t.Fatal("outcomes identical across different seeds")
	}
}

// singleBatchArtifacts serves one stream on devs with BatchMax 4: a
// lead-in frame at t=0 locks the stream, four frames of one problem
// queue behind it, and the lead-in's completion releases all four as a
// single batch — on an anneal device, one lease and one Prepared shared
// by four frames that the execute phase then runs concurrently. It
// returns the marshaled outcomes and trace JSONL.
func singleBatchArtifacts(t *testing.T, devs []Device, workers int) (outcomes, trace []byte) {
	t.Helper()
	p := testProblems(t)[0]
	init := make([]int8, p.N)
	for i := range init {
		init[i] = 1
	}
	var reqs []Request
	for q := 0; q <= 4; q++ {
		reqs = append(reqs, Request{Stream: 0, Seq: q, Arrival: float64(min(q, 1)), Problem: p, InitialState: init})
	}
	cfg := Config{
		Devices:  devs,
		NumReads: 12,
		BatchMax: 4,
		Workers:  workers,
		Seed:     0x51B47,
		Trace:    telemetry.NewTracer(),
	}
	res, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	batch := res.Outcomes[1].Batch
	for _, o := range res.Outcomes[1:] {
		if o.Shed || o.Batch != batch || batch == res.Outcomes[0].Batch {
			t.Fatalf("frame %d: batch %d shed %v, want frames 1–4 in one batch after the lead-in", o.Seq, o.Batch, o.Shed)
		}
	}
	out, err := json.Marshal(res.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// TestSingleBatchWorkerInvariance pins the frame-granular execute phase
// where it is most exposed: all frames of one batch run at once on the
// same lease (and, on the anneal device, the same Prepared and the
// shared scratch pools), yet outcomes and trace bytes must not depend
// on the worker count. Under `make race` it is also the race check for
// concurrent RunPrepared on one lease and one Prepared.
func TestSingleBatchWorkerInvariance(t *testing.T) {
	prof := annealer.CalibratedProfile()
	pools := map[string][]Device{
		"embedded-noisy": {{
			QPU: annealer.NewQPU2000Q(), Profile: &prof, SweepsPerMicrosecond: 30,
			ICE:    annealer.DWave2000QICE(),
			Faults: annealer.FaultModel{ReadTimeoutRate: 0.2, CalibrationDriftRate: 0.3},
		}},
		"classical": HybridDevices(0, 1, 1),
	}
	for name, devs := range pools {
		t.Run(name, func(t *testing.T) {
			refOut, refTrace := singleBatchArtifacts(t, devs, 1)
			for _, workers := range []int{4, 16} {
				out, trace := singleBatchArtifacts(t, devs, workers)
				if !bytes.Equal(out, refOut) {
					t.Fatalf("outcomes diverge at %d workers", workers)
				}
				if !bytes.Equal(trace, refTrace) {
					t.Fatalf("trace export diverges at %d workers", workers)
				}
			}
		})
	}
}
