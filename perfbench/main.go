// Command perfbench is the serving benchmark: one workload per run, a
// closed loop of serving calls for a fixed wall time, every answer
// checked, end-to-end metrics on the last stdout line. With -trace 1 it
// also replays each call's layers on the call's own inputs and prints the
// per-layer CPU ledger instead.
//
//	bash perfbench/run.sh --workload city-cran --seed 7 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for the result record and spans (empty: none)
	// Fixed by main; tests shrink them.
	workers int    // fleet Workers / cran ShardWorkers
	setups  int    // set-ups per run; setup_s is their median
	root    string // repository root, for provenance
	pool    int    // when positive, truncates the call pool
	least   int    // least untraced calls of an untraced run
}

// An untraced run serves every pool slot at least minPasses times, so
// each slot's time is a median over repeats, and makes at least minCalls
// calls, so ten lie beyond call_ms_p90.
const (
	minPasses = 3
	minCalls  = 100
)

func main() {
	o := options{workers: runtime.NumCPU(), setups: 15, root: ".", least: minCalls}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "wall seconds of timed calls")
	flag.IntVar(&trace, "trace", 0, "1: replay layers and print the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for the result record and spans (empty: none)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	o.trace = trace == 1
	rep, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if o.out != "" {
		if err := writeRecord(o, rep); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run's full output: the result line plus everything the
// record file keeps.
type report struct {
	result     result
	provenance provenance
	all        map[string]metric
	ledger     []ledgerRow
	spans      []span
	calls      int
}

// Units of every metric the benchmark reports.
var units = map[string]string{
	"setup_s":            "s",
	"frames_per_s":       "frames/s",
	"call_ms_p50":        "ms",
	"call_ms_p90":        "ms",
	"cpu_ms_per_frame":   "ms",
	"alloc_kb_per_frame": "KiB",
	"sim_fps":            "frames/sim-s",
	"sim_latency_us_p50": "sim-us",
	"sim_latency_us_p90": "sim-us",
	"deadline_hit_rate":  "ratio",
	"shed_rate":          "ratio",
	"served_rate":        "ratio",
	"ber":                "ratio",
	"bit_accuracy":       "ratio",
	"ml_hit_rate":        "ratio",
	"llr_ber":            "ratio",
}

// endToEnd are the metrics of an untraced run's result line (the
// BENCHMARK.json end_to_end list): every one is defined and non-zero on
// every workload. ml_hit_rate, shed_rate, ber and llr_ber are printed but
// not gated: ml_hit_rate is ≈0.02 on uplink-16qam (too few hits to be
// steady across seeds), the others are 0 on some workloads.
var endToEnd = []string{
	"setup_s", "frames_per_s", "call_ms_p50", "call_ms_p90", "cpu_ms_per_frame",
	"alloc_kb_per_frame", "sim_fps", "sim_latency_us_p50", "sim_latency_us_p90",
	"deadline_hit_rate", "served_rate", "bit_accuracy",
}

// run executes one benchmark run and prints its human-readable lines.
func run(ctx context.Context, o options, w io.Writer) (*report, error) {
	wl, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	rep := &report{provenance: getProvenance(o)}
	pj, _ := json.Marshal(rep.provenance)
	fmt.Fprintf(w, "# provenance %s\n", pj)
	fmt.Fprintf(w, "# workload %s: %s\n", wl.name, wl.why)

	clock := newHostClock()
	setupS, setupRawS, calls, err := setupTimes(wl, o.seed, o.setups, clock)
	if err != nil {
		return nil, err
	}
	if o.pool > 0 && o.pool < len(calls) {
		calls = calls[:o.pool]
	}

	lp := loop{o: o, calls: calls, clock: clock}
	var lg *ledger
	start := time.Now()
	end := start.Add(time.Duration(o.seconds * float64(time.Second)))
	if o.trace {
		// An untraced third fixes the baseline call CPU; the rest is
		// traced and replays every call's layers.
		third := start.Add(time.Duration(o.seconds / 3 * float64(time.Second)))
		if err := lp.runUntil(ctx, third, len(calls), false, nil); err != nil {
			return nil, err
		}
		lg = newLedger(wl.name)
		if err := lp.runUntil(ctx, end, 1, true, lg); err != nil {
			return nil, err
		}
	} else if err := lp.runUntil(ctx, end, max(minPasses*len(calls), o.least), false, nil); err != nil {
		return nil, err
	}

	det := lp.det.metricsMap()
	all := map[string]metric{
		"setup_s":          {setupS, units["setup_s"]},
		"raw.setup_s":      {setupRawS, units["setup_s"]},
		"host.ref_ms":      {clock.medianMs(), "ms"},
		"host.slowdown":    {clock.medianMs() / refNominalMs, "ratio"},
		"host.ref_samples": {float64(len(clock.samples)), "count"},
	}
	for k, v := range det {
		if u, ok := units[k]; ok {
			all[k] = metric{v, u}
		}
	}
	// Time metrics are scaled to the reference host speed; raw.* are the
	// same unscaled. Allocation is summed over every untraced call.
	served := addTimeMetrics(all, "", lp.untraced, len(calls), clock)
	addTimeMetrics(all, "raw.", lp.untraced, len(calls), nil)
	var callCPU, alloc, allocFrames float64
	for _, s := range lp.untraced {
		callCPU += s.cpuMs
		alloc += float64(s.allocB)
		allocFrames += float64(s.frames)
	}
	all["alloc_kb_per_frame"] = metric{alloc / 1024 / allocFrames, "KiB"}
	rep.all = all
	rep.calls = len(lp.untraced)

	lo, hi := minMax(served)
	fmt.Fprintf(w, "# %d untraced calls (%d-%d per pool slot of %d), %d traced calls\n",
		len(lp.untraced), lo, hi, len(calls), len(lp.traced))
	writeMetricTable(w, all)
	writeCounts(w, det)

	res := result{
		Correct:   lp.failed == 0 && len(lp.errs) == 0,
		Attempted: lp.attempted,
		Failed:    lp.failed,
		Metrics:   map[string]metric{},
	}
	for _, e := range lp.errs {
		fmt.Fprintf(w, "# check failed: %v\n", e)
	}
	if o.trace {
		base := callCPU / float64(len(lp.untraced))
		layer, rows, spans := lg.finish(base, det)
		rep.ledger, rep.spans = rows, spans
		writeLedger(w, wl.name, base, rows)
		res.Metrics = layer
	} else {
		for _, k := range endToEnd {
			res.Metrics[k] = all[k]
		}
	}
	rep.result = res
	return rep, nil
}

func writeMetricTable(w io.Writer, all map[string]metric) {
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# %-22s %14.6g %s\n", k, all[k].Value, all[k].Unit)
	}
}

// writeCounts prints the deterministic layer counts of the first pass.
func writeCounts(w io.Writer, det map[string]float64) {
	names := make([]string, 0, len(det))
	for k := range det {
		if _, ok := units[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# %-34s %14.6g\n", k, det[k])
	}
}

// addTimeMetrics adds the wall and CPU metrics of a run's untraced calls
// under the given name prefix, each call divided by the host slowdown at
// its start (unscaled when h is nil), and returns the serves per pool
// slot. Throughput and CPU take one pass over the pool at each slot's
// median serve; the call quantiles are over every call.
func addTimeMetrics(all map[string]metric, prefix string, samples []callSample, slots int, h *hostClock) []int {
	med, served := slotMedians(samples, slots, h)
	var wall, cpu, frames float64
	for _, m := range med {
		wall += m.wallMs
		cpu += m.cpuMs
		frames += float64(m.frames)
	}
	callMs := make([]float64, len(samples))
	for i, s := range samples {
		callMs[i] = s.wallMs / h.slowdown(s.at)
	}
	all[prefix+"frames_per_s"] = metric{frames / (wall / 1e3), units["frames_per_s"]}
	all[prefix+"call_ms_p50"] = metric{quantile(callMs, 0.5), "ms"}
	all[prefix+"call_ms_p90"] = metric{quantile(callMs, 0.9), "ms"}
	all[prefix+"cpu_ms_per_frame"] = metric{cpu / frames, "ms"}
	return served
}

// slotMedians is each pool slot's median wall time and median CPU over
// its untraced serves, each serve divided by the host slowdown at its
// start (unscaled when h is nil), and the serves per slot. A stall the
// reference does not see (a descheduled vCPU, a GC cycle) shows only if
// it covers half of a slot's serves.
func slotMedians(samples []callSample, slots int, h *hostClock) ([]callSample, []int) {
	walls := make([][]float64, slots)
	cpus := make([][]float64, slots)
	out := make([]callSample, slots)
	for _, s := range samples {
		f := h.slowdown(s.at)
		walls[s.slot] = append(walls[s.slot], s.wallMs/f)
		cpus[s.slot] = append(cpus[s.slot], s.cpuMs/f)
		out[s.slot].frames = s.frames
	}
	served := make([]int, slots)
	for i := range out {
		out[i].wallMs = quantile(walls[i], 0.5)
		out[i].cpuMs = quantile(cpus[i], 0.5)
		served[i] = len(walls[i])
	}
	return out, served
}

func minMax(xs []int) (lo, hi int) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		hi = max(hi, x)
	}
	return lo, hi
}

// loop is the closed-loop caller: one call at a time, the next issued
// when the previous returns, cycling through the pool.
type loop struct {
	o                 options
	calls             []call
	next              int
	first             []uint64 // first-pass digest per pool slot
	det               deterministic
	untraced, traced  []callSample
	clock             *hostClock
	attempted, failed int
	errs              []error
}

// runUntil makes calls until the wall clock passes end and this phase
// made at least least calls.
func (lp *loop) runUntil(ctx context.Context, end time.Time, least int, traced bool, lg *ledger) error {
	for made := 0; ; made++ {
		if !time.Now().Before(end) && made >= least {
			return nil
		}
		slot := lp.next % len(lp.calls)
		c := lp.calls[slot]
		var sub *subTimes
		if traced {
			sub = &subTimes{}
		}
		lp.clock.tick()
		res, s, err := timeCall(ctx, c, lp.o.workers, sub)
		s.slot = slot
		lp.next++
		if err != nil {
			lp.attempted++
			lp.failed++
			lp.noteErr(fmt.Errorf("call %d: %w", slot, err))
			continue
		}
		lp.attempted += len(res.answers)
		if n, err := checkCall(res); n > 0 {
			lp.failed += n
			lp.noteErr(fmt.Errorf("call %d: %w", slot, err))
		}
		d := digest(res)
		if lp.next <= len(lp.calls) {
			lp.first = append(lp.first, d)
			lp.det.add(res)
		} else if d != lp.first[slot] {
			lp.failed += len(res.answers)
			lp.noteErr(fmt.Errorf("call %d: answers differ from its first serve", slot))
		}
		if !traced {
			lp.untraced = append(lp.untraced, s)
			continue
		}
		lp.traced = append(lp.traced, s)
		if err := lg.record(c, res, s, sub); err != nil {
			lp.failed += len(res.answers)
			lp.noteErr(fmt.Errorf("call %d replay: %w", slot, err))
		}
	}
}

func (lp *loop) noteErr(err error) {
	if len(lp.errs) < 10 {
		lp.errs = append(lp.errs, err)
	}
}

func writeRecord(o options, rep *report) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace0", o.workload, o.seed)
	if o.trace {
		name = strings.TrimSuffix(name, "0") + "1"
	}
	base := filepath.Join(o.out, name)
	rec := map[string]any{
		"provenance": rep.provenance,
		"seconds":    o.seconds,
		"calls":      rep.calls,
		"result":     rep.result,
		"metrics":    rep.all,
		"ledger":     rep.ledger,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(rep.spans) == 0 {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range rep.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
