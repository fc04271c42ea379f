package annealer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/qubo"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/batch_golden.txt")

const batchGoldenPath = "testdata/batch_golden.txt"

// goldenEntry is one way into the batch body: the one-shot call (Run or
// QPU.Run) or a lease's prepared-problem run.
type goldenEntry struct {
	name string
	run  func(q *QPU, is *qubo.Ising, p Params, r *rng.Source) (*Result, error)
}

// oneShot is Run, or QPU.Run when q is set.
func oneShot(q *QPU, is *qubo.Ising, p Params, r *rng.Source) (*Result, error) {
	if q != nil {
		return q.Run(is, p, r)
	}
	return Run(is, p, r)
}

var goldenEntries = []goldenEntry{
	{"direct", oneShot},
	{"prepared", func(q *QPU, is *qubo.Ising, p Params, r *rng.Source) (*Result, error) {
		var l *Lease
		var err error
		if q != nil {
			l, err = q.Lease(p)
		} else {
			l, err = NewLease(p)
		}
		if err != nil {
			return nil, err
		}
		prep, err := l.PrepareProblem(is)
		if err != nil {
			return nil, err
		}
		return l.RunPrepared(prep, p.InitialState, p.NumReads, r)
	}},
}

func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// fingerprint runs one case with a tracer and registry attached and
// renders everything observable about it on one line: the headline
// result fields, a hash of the full Result (every sample's spins and
// energy included), and hashes of the exported trace and metrics.
func fingerprint(name string, e goldenEntry, q *QPU, is *qubo.Ising, p Params, probed bool, seed uint64) string {
	tr := telemetry.NewTracer()
	reg := telemetry.NewRegistry()
	p.Trace, p.Metrics = tr, reg
	if probed {
		// Probe observations reach the trace only: histogram sums are
		// order-dependent under parallel reads, trace records are not.
		p.Probe = &MetricsProbe{Trace: tr, SampleEvery: 8, Engine: "golden"}
	}
	res, err := e.run(q, is, p, rng.New(seed))
	var trace, metrics bytes.Buffer
	if err := tr.WriteJSONL(&trace); err != nil {
		panic(err)
	}
	if err := reg.WritePrometheus(&metrics); err != nil {
		panic(err)
	}
	tail := fmt.Sprintf("trace=%s metrics=%s", shortHash(trace.Bytes()), shortHash(metrics.Bytes()))
	if err != nil {
		return fmt.Sprintf("%s/%s err=%q %s", name, e.name, err.Error(), tail)
	}
	return fmt.Sprintf("%s/%s best=%v n=%d faults=%+v broken=%v result=%s %s",
		name, e.name, res.Best.Energy, len(res.Samples), res.Faults, res.BrokenChainRate,
		shortHash([]byte(fmt.Sprintf("%v", *res))), tail)
}

// batchGoldenLines enumerates the batch-body matrix — {logical,
// embedded} × {FA, RA} × {clean, ICE + timeouts + drift + storms} ×
// {lockstep, probed} × parallelism {1, 3} × {SVMC, PIMC}, each through
// both entry points — plus the error paths.
func batchGoldenLines() []string {
	is := frustrated(6, 0x601D)
	init := make([]int8, is.N)
	for i := range init {
		init[i] = int8(1 - 2*(i%2))
	}
	fa, _ := Forward(1, 0.41, 1)
	ra, _ := Reverse(0.45, 1)
	faulty := FaultModel{ReadTimeoutRate: 0.15, ChainBreakStormRate: 0.3, CalibrationDriftRate: 0.2}
	var lines []string
	seed := uint64(0)
	for _, path := range []string{"logical", "embedded"} {
		var q *QPU
		if path == "embedded" {
			q = NewQPU2000Q()
		}
		for _, sched := range []string{"fa", "ra"} {
			for _, noise := range []string{"clean", "faulty"} {
				for _, mode := range []string{"lockstep", "probed"} {
					for _, par := range []int{1, 3} {
						for _, eng := range []Engine{SVMC{}, PIMC{Slices: 4}} {
							seed++
							p := Params{Schedule: fa, NumReads: 11, Engine: eng,
								SweepsPerMicrosecond: 20, Parallelism: par}
							if sched == "ra" {
								p.Schedule, p.InitialState = ra, init
							}
							if noise == "faulty" {
								p.ICE, p.Faults = DWave2000QICE(), faulty
							}
							name := fmt.Sprintf("%s/%s/%s/%s/par=%d/%s", path, sched, noise, mode, par, eng.Name())
							for _, e := range goldenEntries {
								lines = append(lines, fingerprint(name, e, q, is, p, mode == "probed", seed))
							}
						}
					}
				}
			}
		}
	}

	errCases := []struct {
		name string
		q    *QPU
		is   *qubo.Ising
		p    Params
	}{
		{"logical/programming-fault", nil, is, Params{Schedule: fa, NumReads: 4, Faults: FaultModel{ProgrammingFailureRate: 1}}},
		{"embedded/programming-fault", NewQPU2000Q(), is, Params{Schedule: fa, NumReads: 4, Faults: FaultModel{ProgrammingFailureRate: 1}}},
		{"logical/all-reads-lost", nil, is, Params{Schedule: fa, NumReads: 4, Faults: FaultModel{ReadTimeoutRate: 1}}},
		{"embedded/all-reads-lost", NewQPU2000Q(), is, Params{Schedule: fa, NumReads: 4, Faults: FaultModel{ReadTimeoutRate: 1}}},
		{"logical/ra-short-init", nil, is, Params{Schedule: ra, InitialState: init[:3], NumReads: 4}},
		{"embedded/ra-short-init", NewQPU2000Q(), is, Params{Schedule: ra, InitialState: init[:3], NumReads: 4}},
		{"logical/ra-no-init", nil, is, Params{Schedule: ra, NumReads: 4}},
		{"logical/empty", nil, qubo.NewIsing(0), Params{Schedule: fa, NumReads: 4}},
		{"embedded/over-capacity", &QPU{Grid: 1}, is, Params{Schedule: fa, NumReads: 4}},
		{"logical/too-many-reads", nil, is, Params{Schedule: fa, NumReads: MaxReads + 1}},
		{"logical/nil-schedule", nil, is, Params{NumReads: 4}},
	}
	for _, c := range errCases {
		for _, e := range goldenEntries {
			lines = append(lines, fingerprint(c.name, e, c.q, c.is, c.p, false, 99))
		}
	}
	return lines
}

// TestBatchBodyGolden pins every observable of the anneal batch body —
// results, fault tallies, broken-chain rate, trace and metrics bytes —
// against a golden captured before the logical and embedded bodies were
// merged. Rewrite it only for an intentional model change:
//
//	go test ./internal/annealer -run TestBatchBodyGolden -update
func TestBatchBodyGolden(t *testing.T) {
	got := strings.Join(batchGoldenLines(), "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(batchGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(batchGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(batchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	if len(wl) != len(gl) {
		t.Fatalf("golden has %d lines, run produced %d", len(wl), len(gl))
	}
	for i := range wl {
		if wl[i] != gl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
}
