package slo

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/cran"
	"repro/internal/fleet"
	"repro/internal/telemetry"
)

// distinctRecords builds a shuffled serving-shaped set of n records —
// per frame a fleet/frame and a fleet/batch span, a fleet/answer and a
// fleet/anneal-stats event — in which no two records share a timestamp,
// so the canonical order never needs an attrs tiebreak.
func distinctRecords(n int, seed int64) []telemetry.Record {
	recs := make([]telemetry.Record, 0, n)
	for f := 0; len(recs) < n; f++ {
		at := float64(f) * 400
		shard := fmt.Sprintf("s%d", f%4)
		stream, seq, dev := f%16, f/16, f%3
		recs = append(recs,
			telemetry.Record{Type: "span", Name: "fleet/frame", T0: at, T1: at + 350, Attrs: telemetry.Attrs{
				"shard": shard, "stream": stream, "seq": seq, "device": dev, "batch": f,
				"attempts": 1, "queue_us": 20.0, "reads": 4,
			}},
			telemetry.Record{Type: "span", Name: "fleet/batch", T0: at + 20, T1: at + 340, Attrs: telemetry.Attrs{
				"shard": shard, "device": dev, "batch": f, "prog_us": 10.0, "anneal_us": 250.0, "readout_us": 60.0,
			}},
			telemetry.Record{Type: "event", Name: "fleet/answer", T0: at + 345, Attrs: telemetry.Attrs{
				"shard": shard, "stream": stream, "seq": seq, "source": "quantum",
			}},
			telemetry.Record{Type: "event", Name: "fleet/anneal-stats", T0: at + 341, Attrs: telemetry.Attrs{
				"shard": shard, "device": dev, "stream": stream, "seq": seq, "survived": 4,
				"mean_energy": -3.5, "cand_energy": -4.0, "chain_break_rate": 0.01,
			}},
		)
	}
	recs = recs[:n]
	rand.New(rand.NewSource(seed)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// TestAnalyzeAllocsLinear guards the cost of putting records into the
// canonical order: allocations per record for Analyze must not grow with
// the set size. Marshaling attrs inside the sort comparator costs
// O(n log n) allocations, which raises the per-record count by more than
// this bound between 400 and 1,600 records.
func TestAnalyzeAllocsLinear(t *testing.T) {
	cfg := Config{Specs: DefaultSpecs(4000)}
	perRecord := func(n int) float64 {
		recs := distinctRecords(n, int64(n))
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Analyze(recs, cfg); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(n)
	}
	small, large := perRecord(400), perRecord(1600)
	t.Logf("allocs/record: %.2f at 400, %.2f at 1600", small, large)
	if large > 1.1*small {
		t.Fatalf("Analyze allocs/record grew from %.2f (400 records) to %.2f (1600 records)", small, large)
	}
}

// finishRecords is one sharded serve's live record set, shuffled the way
// host scheduling interleaves parallel emitters.
func finishRecords(tb testing.TB) []telemetry.Record {
	tb.Helper()
	probs := testProblems(tb)
	var reqs []cran.Request
	for cell := 0; cell < 16; cell++ {
		for ue := 0; ue < 2; ue++ {
			for q := 0; q < 4; q++ {
				p := probs[(cell+ue+q)%len(probs)]
				init := make([]int8, p.N)
				for i := range init {
					init[i] = 1
				}
				reqs = append(reqs, cran.Request{
					Cell: cell, UE: ue, Seq: q,
					Arrival: float64(q)*300 + float64(cell)*7, Problem: p, InitialState: init,
				})
			}
		}
	}
	tr := telemetry.NewTracer()
	if _, err := cran.Serve(context.Background(), cran.Config{
		Shards: [][]fleet.Device{logicalDevices(2), logicalDevices(2), logicalDevices(2), logicalDevices(2)},
		Fleet:  fleet.Config{NumReads: 4, BatchMax: 4},
		Seed:   3, Trace: tr,
	}, reqs); err != nil {
		tb.Fatal(err)
	}
	recs := tr.Records()
	rand.New(rand.NewSource(1)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// benchFinishConfig is the Config payload of BENCH_MonitorFinish.json.
type benchFinishConfig struct {
	Records int `json:"records"`
	Frames  int `json:"frames"`
	Alerts  int `json:"alerts"`
}

// BenchmarkMonitorFinish times one Monitor.Finish over a sharded serve's
// shuffled live record set with the serving tier's default SLOs.
func BenchmarkMonitorFinish(b *testing.B) {
	recs := finishRecords(b)
	m := NewMonitor(Config{Specs: DefaultSpecs(4000)})
	m.ObserveAll(recs)
	var snap *Snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if snap, err = m.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if dir := os.Getenv(telemetry.BenchJSONDirEnv); dir != "" {
		cfg := benchFinishConfig{Records: len(recs), Frames: len(snap.Frames), Alerts: len(snap.Alerts)}
		rec := telemetry.BenchRecord{
			Name:       "MonitorFinish",
			NsPerOp:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			Iterations: b.N,
			Config:     cfg,
			Series:     fmt.Sprintf("records=%d frames=%d alerts=%d", cfg.Records, cfg.Frames, cfg.Alerts),
		}
		if err := telemetry.WriteBenchJSON(dir, rec); err != nil {
			b.Fatal(err)
		}
	}
}
