package slo

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/annealer"
	"repro/internal/fleet"
	"repro/internal/telemetry"
)

const fixturePath = "testdata/trace_small.jsonl"

// fixtureTrace regenerates the committed fixture's byte content: a small
// deterministic fleet run with one drifting device. The fixture on disk
// is written by TestRegenerateFixture (run with SLO_REGEN=1).
func fixtureTrace(t testing.TB) []byte {
	t.Helper()
	devs := logicalDevices(2)
	devs[1].Faults = annealer.FaultModel{CalibrationDriftRate: 0.5, DriftSigma: 0.4}
	reqs := uniformRequests(t, 2, 5, 150, 0)
	tr := telemetry.NewTracer()
	if _, err := fleet.Serve(context.Background(), fleet.Config{
		Devices: devs, NumReads: 4, Seed: 23, Trace: tr,
	}, reqs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRegenerateFixture rewrites testdata/trace_small.jsonl when
// SLO_REGEN=1 is set; otherwise it verifies the committed fixture still
// matches what the serving tier emits today, so the fixture cannot
// silently rot.
func TestRegenerateFixture(t *testing.T) {
	want := fixtureTrace(t)
	if os.Getenv("SLO_REGEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("%v (regenerate with SLO_REGEN=1 go test -run TestRegenerateFixture ./internal/slo/)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("committed fixture is stale; regenerate with SLO_REGEN=1")
	}
}

func TestParseTraceCleanRoundTrip(t *testing.T) {
	raw := fixtureTrace(t)
	recs, stats, err := ParseTrace(bytes.NewReader(raw), true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 || stats.Duplicates != 0 || stats.OutOfOrder != 0 {
		t.Fatalf("clean export parsed dirty: %+v", stats)
	}
	if stats.Records != stats.Lines || stats.Records == 0 {
		t.Fatalf("line/record mismatch: %+v", stats)
	}
	// The parsed record set analyzes without error and yields frames.
	snap, err := Analyze(recs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Tier.Served == 0 {
		t.Fatalf("no served frames in fixture analysis: %+v", snap.Tier)
	}
}

func TestParseTraceShuffledLinesSortBack(t *testing.T) {
	raw := fixtureTrace(t)
	recs, _, err := ParseTrace(bytes.NewReader(raw), true)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	// Reverse the body (keep the manifest line wherever it lands — the
	// parser pulls it back to the front).
	for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
		lines[i], lines[j] = lines[j], lines[i]
	}
	shuffled := bytes.Join(lines, []byte("\n"))
	recs2, stats, err := ParseTrace(bytes.NewReader(shuffled), true)
	if err != nil {
		t.Fatal(err)
	}
	// No two fixture records share a full key, so reversing the body
	// inverts every adjacent pair.
	if want := len(recs) - 1; stats.OutOfOrder != want {
		t.Fatalf("reversed input reported %d inversions, want %d", stats.OutOfOrder, want)
	}
	if !reflect.DeepEqual(recs, recs2) {
		t.Fatal("shuffled trace did not sort back to canonical order")
	}
}

func TestParseTraceMalformedStrictVsLenient(t *testing.T) {
	raw := fixtureTrace(t)
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	lines[2] = []byte(`{"type":"span","t0_us":`) // truncated mid-object
	dirty := bytes.Join(lines, []byte("\n"))

	_, _, err := ParseTrace(bytes.NewReader(dirty), true)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("strict mode error %v, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Fatalf("ParseError line %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Fatalf("error string %q lacks line number", pe.Error())
	}

	recs, stats, err := ParseTrace(bytes.NewReader(dirty), false)
	if err != nil {
		t.Fatalf("lenient mode errored: %v", err)
	}
	if stats.Skipped != 1 {
		t.Fatalf("lenient skipped %d, want 1", stats.Skipped)
	}
	if len(recs) != stats.Records {
		t.Fatalf("returned %d records, stats say %d", len(recs), stats.Records)
	}
}

func TestParseTraceDuplicatedAndTruncated(t *testing.T) {
	raw := fixtureTrace(t)

	// Doubly-concatenated trace: every line is a duplicate the second
	// time around.
	doubled := append(append([]byte(nil), raw...), raw...)
	_, stats, err := ParseTrace(bytes.NewReader(doubled), true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duplicates != stats.Lines/2 {
		t.Fatalf("doubled trace: %d duplicates over %d lines", stats.Duplicates, stats.Lines)
	}

	// Truncated tail: cut mid-line. Lenient keeps the prefix.
	cut := raw[:len(raw)-20]
	recs, stats, err := ParseTrace(bytes.NewReader(cut), false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 1 {
		t.Fatalf("truncated tail skipped %d, want 1", stats.Skipped)
	}
	if len(recs) == 0 {
		t.Fatal("truncated trace lost its prefix")
	}
	// Strict mode refuses the same input.
	if _, _, err := ParseTrace(bytes.NewReader(cut), true); err == nil {
		t.Fatal("strict mode accepted a truncated trace")
	}
}

func TestParseTraceEmptyAndBlank(t *testing.T) {
	recs, stats, err := ParseTrace(strings.NewReader("\n\n  \n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.Lines != 0 {
		t.Fatalf("blank input produced %d records, %+v", len(recs), stats)
	}
}
