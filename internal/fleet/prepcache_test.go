package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
)

// cacheArtifacts serves the determinism scenario with an explicit
// prepared-problem cache size and returns the marshaled outcomes, trace
// JSONL, and the cache counters.
func cacheArtifacts(t *testing.T, workers, cacheSize int) (outcomes, trace []byte, rep Report) {
	t.Helper()
	cfg, reqs := determinismScenario(t, true)
	cfg.Workers = workers
	cfg.PrepCacheSize = cacheSize
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
	return out, buf.Bytes(), res.Report
}

// TestFleetPrepCacheDeterminism extends the fleet determinism contract
// to the prepared-problem cache: outcomes and traces must be
// bit-identical at capacity 1 (the always-evicting reference: every
// change of problem recompiles), at an eviction-forcing capacity (2),
// and at the default capacity — each at worker counts 1, 4, and 16. The
// cache can only skip recompiles, never change answers, and its warm
// pass runs single-threaded in plan order, so neither capacity nor
// parallelism may leak into results. The counters themselves must also
// be worker-count invariant.
func TestFleetPrepCacheDeterminism(t *testing.T) {
	refOut, refTrace, _ := cacheArtifacts(t, 1, 1)
	for _, size := range []int{1, 2, 0} { // always evicting, evicting, default (64)
		var refStats *Report
		for _, workers := range []int{1, 4, 16} {
			out, trace, rep := cacheArtifacts(t, workers, size)
			if !bytes.Equal(out, refOut) {
				t.Fatalf("outcomes diverge from the capacity-1 serve at cache size %d, %d workers", size, workers)
			}
			if !bytes.Equal(trace, refTrace) {
				t.Fatalf("trace export diverges from the capacity-1 serve at cache size %d, %d workers", size, workers)
			}
			if refStats == nil {
				refStats = &rep
			} else if rep.PrepCache != refStats.PrepCache {
				t.Fatalf("cache counters vary with worker count at size %d: %+v vs %+v",
					size, rep.PrepCache, refStats.PrepCache)
			}
		}
	}
}

// TestFleetPrepCacheCounters checks the counters tell the expected
// story on the scenario's repeating workload: the default-size cache
// sees real hits with no evictions, and capacity 2 over three devices'
// working sets is forced to evict. Metrics counters must mirror the
// report.
func TestFleetPrepCacheCounters(t *testing.T) {
	cfg, reqs := determinismScenario(t, true)
	cfg.Workers = 4
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	res, err := Serve(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Report.PrepCache
	if st.Misses == 0 {
		t.Fatal("default cache saw no misses; warm pass did not run")
	}
	if st.Hits == 0 {
		t.Fatal("default cache saw no hits on a workload that repeats problems")
	}
	if st.Evictions != 0 || st.Collisions != 0 {
		t.Fatalf("default-capacity cache should not evict or collide here: %+v", st)
	}
	if got := reg.Counter("fleet_prep_cache_hits_total").Value(); got != float64(st.Hits) {
		t.Fatalf("hits metric %v, report %d", got, st.Hits)
	}
	if got := reg.Counter("fleet_prep_cache_misses_total").Value(); got != float64(st.Misses) {
		t.Fatalf("misses metric %v, report %d", got, st.Misses)
	}

	_, _, small := cacheArtifacts(t, 4, 2)
	if small.PrepCache.Evictions == 0 {
		t.Fatalf("capacity-2 cache over this workload must evict: %+v", small.PrepCache)
	}
	if small.PrepCache.Misses <= st.Misses {
		t.Fatalf("evicting cache should re-miss evicted problems: %+v vs default %+v", small.PrepCache, st)
	}
}
