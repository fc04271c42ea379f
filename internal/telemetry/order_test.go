package telemetry

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// referenceLess is the original exporter comparator, kept as the
// oracle: it marshals both operands' attrs on every comparison.
func referenceLess(a, b Record) bool {
	if a.T0 != b.T0 {
		return a.T0 < b.T0
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	ai, _ := json.Marshal(a.Attrs)
	aj, _ := json.Marshal(b.Attrs)
	return string(ai) < string(aj)
}

// referenceSort is the original exporter order: a stable sort under
// referenceLess.
func referenceSort(recs []Record) []Record {
	out := slices.Clone(recs)
	sort.SliceStable(out, func(i, j int) bool { return referenceLess(out[i], out[j]) })
	return out
}

// randomAttrs draws from a small pool so equal attrs recur, covering
// ints, strings, floats, nested maps, nil and empty maps, and a value
// encoding/json rejects (its key is the empty string).
func randomAttrs(rng *rand.Rand) Attrs {
	switch rng.Intn(9) {
	case 0:
		return nil
	case 1:
		return Attrs{}
	case 2:
		return Attrs{"seq": rng.Intn(3)}
	case 3:
		return Attrs{"shard": []string{"s0", "s1", "s10"}[rng.Intn(3)]}
	case 4:
		return Attrs{"queue_us": []float64{0.5, 1e-7, 12.25, -3}[rng.Intn(4)]}
	case 5:
		return Attrs{"stream": rng.Intn(2), "seq": rng.Intn(2), "shard": "s0"}
	case 6:
		return Attrs{"batch": Attrs{"device": rng.Intn(2), "reads": []int{4, rng.Intn(2)}}}
	case 7:
		return Attrs{"nested": map[string]any{"a": map[string]any{"b": rng.Intn(2)}}}
	default:
		return Attrs{"bad": math.Inf(1)}
	}
}

// randomRecords builds n records with T0 and Name drawn from tiny pools,
// so (T0, Name) ties are the rule and fully identical keys are common;
// identical-key records still differ in T1 or Type, which makes the
// stability of the order observable.
func randomRecords(rng *rand.Rand, n int) []Record {
	t0s := []float64{0, 1, 1.5, 2, 100}
	names := []string{"fleet/frame", "fleet/batch", "fleet/answer", "a"}
	out := make([]Record, n)
	for i := range out {
		r := Record{
			Name:  names[rng.Intn(len(names))],
			T0:    t0s[rng.Intn(len(t0s))],
			Attrs: randomAttrs(rng),
		}
		if rng.Intn(2) == 0 {
			r.Type = "event"
		} else {
			r.Type = "span"
			r.T1 = r.T0 + float64(i)
		}
		out[i] = r
	}
	return out
}

// emit feeds recs to a fresh tracer in slice order.
func emit(recs []Record) *Tracer {
	tr := NewTracer()
	for _, r := range recs {
		if r.Type == "span" {
			tr.Span(r.Name, r.T0, r.T1, r.Attrs)
		} else {
			tr.Event(r.Name, r.T0, r.Attrs)
		}
	}
	return tr
}

// TestSortRecordsMatchesReference: on shuffled tie-heavy record sets,
// SortRecords and Tracer.Records reproduce the marshal-both-operands
// stable sort exactly, whatever the input order.
func TestSortRecordsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		recs := randomRecords(rng, 1+rng.Intn(300))
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })

		got := slices.Clone(recs)
		SortRecords(got)
		if want := referenceSort(recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SortRecords diverged from reference\ngot:  %+v\nwant: %+v", trial, got, want)
		}

		// The same set emitted in another order.
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		if got, want := emit(recs).Records(), referenceSort(recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Tracer.Records diverged from reference\ngot:  %+v\nwant: %+v", trial, got, want)
		}
	}
}

// TestCompareRecordsMatchesReference: CompareRecords agrees with the
// reference comparator on every pair drawn from a tie-heavy set.
func TestCompareRecordsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := randomRecords(rng, 60)
	for _, a := range recs {
		for _, b := range recs {
			c := CompareRecords(a, b)
			if (c < 0) != referenceLess(a, b) || (c > 0) != referenceLess(b, a) {
				t.Fatalf("CompareRecords(%+v, %+v) = %d disagrees with the reference", a, b, c)
			}
		}
	}
}

// TestSortRecordsMarshalsOnlyTies: with distinct timestamps no attrs are
// marshaled — the only allocation is the permutation.
func TestSortRecordsMarshalsOnlyTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := randomRecords(rng, 400)
	for i := range recs {
		recs[i].T0 = float64(i)
		recs[i].Attrs = Attrs{"stream": i, "shard": "s1", "queue_us": 2.5}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	work := make([]Record, len(recs))
	allocs := testing.AllocsPerRun(20, func() {
		copy(work, recs)
		SortRecords(work)
	})
	if allocs > 1 {
		t.Fatalf("SortRecords of 400 distinct-T0 records: %.0f allocs, want 1 (attrs marshaled without a tie)", allocs)
	}
	for i := range work {
		if work[i].T0 != float64(i) {
			t.Fatalf("position %d holds T0 %g", i, work[i].T0)
		}
	}
}
