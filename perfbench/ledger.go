package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/annealer"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/cran"
	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/mimo"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// ledger accumulates the traced run's per-layer CPU. Layers are measured
// from outside: after each traced call, the layers below the call are
// replayed on the call's own inputs (same devices, seeds and RNG keys, so
// the replays reproduce the served answers) and timed one by one. A
// layer's self time is its entry point's CPU minus the replayed CPU of
// the layers below it.
type ledger struct {
	workload string
	t0       time.Time
	call     int
	acc      map[string]float64 // CPU ms (or counts) summed over traced calls
	spans    []span
}

// span is one benchmark-side timed step. Spans of one call share Call;
// Start and End are wall ns since the traced phase began.
type span struct {
	Call   int     `json:"call"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	CPUMs  float64 `json:"cpu_ms"`
}

func newLedger(workload string) *ledger {
	return &ledger{workload: workload, t0: time.Now(), acc: map[string]float64{}}
}

// measure times f as the named step and adds its CPU to the named key.
func (lg *ledger) measure(name string, f func() error) error {
	w0, c0 := time.Now(), cpuTime()
	err := f()
	c1, w1 := cpuTime(), time.Now()
	cpu := ms(c1 - c0)
	lg.acc[name] += cpu
	lg.spans = append(lg.spans, span{
		Call: lg.call, Name: name, Parent: "replay",
		Start: w0.Sub(lg.t0).Nanoseconds(), End: w1.Sub(lg.t0).Nanoseconds(), CPUMs: cpu,
	})
	return err
}

// record books one traced call: its own CPU split, then the replays.
func (lg *ledger) record(c call, res *callResult, s callSample, sub *subTimes) error {
	lg.call++
	end := time.Since(lg.t0).Nanoseconds()
	lg.spans = append(lg.spans, span{Call: lg.call, Name: "call", Start: end - int64(s.wallMs*1e6), End: end, CPUMs: s.cpuMs})
	lg.acc["call"] += s.cpuMs
	lg.acc["frames"] += float64(s.frames)
	lg.acc["front.mimo"] += sub.frontMimo
	lg.acc["front.qubo"] += sub.frontQubo
	lg.acc["front.core"] += sub.frontCore
	lg.acc["serve"] += sub.serve
	lg.acc["slo.finish"] += sub.finish
	lg.acc["slo.records"] += float64(res.records)
	return c.replay(res, lg)
}

// synthesize replays instance synthesis for the call's instance specs.
func (lg *ledger) synthesize(specs []instance.Spec) error {
	lg.acc["instance.count"] += float64(len(specs))
	return lg.measure("instance.synthesize", func() error {
		for _, sp := range specs {
			if _, err := instance.Synthesize(sp); err != nil {
				return err
			}
		}
		return nil
	})
}

// annealJob is one annealed frame (or ensemble arm) of a served call.
type annealJob struct {
	dev     int
	sp, tp  float64
	problem *qubo.Ising
	init    []int8
	reads   int
	rng     *rng.Source
	group   int     // ensemble frame index; −1 for single-RA frames
	want    float64 // the served answer's energy this job must reproduce
	// wantExact: the served answer is this job's own best (else it is at
	// most this job's best, e.g. an ensemble arm or a winning candidate).
	wantExact bool
}

// frameRng is the fleet's per-frame RNG key: (seed, stream, seq, attempt).
func frameRng(seed uint64, stream, seq, attempts int) *rng.Source {
	key := uint64(stream)<<32 | uint64(seq)
	return rng.New(seed).SplitString("fleet/frame").Split(key).Split(uint64(attempts))
}

// fleetJobs lists the annealed and classically served frames of one
// fleet.Serve result.
func fleetJobs(devices []fleet.Device, seed uint64, reqs []fleet.Request, outs []fleet.Outcome, defReads int) (anneal []annealJob, classical []classicalJob) {
	byKey := map[[2]int]fleet.Request{}
	for _, r := range reqs {
		byKey[[2]int{r.Stream, r.Seq}] = r
	}
	for _, o := range outs {
		if o.Shed || o.Device < 0 {
			continue
		}
		r := byKey[[2]int{o.Stream, o.Seq}]
		reads := r.NumReads
		if reads == 0 {
			reads = defReads
		}
		rs := frameRng(seed, o.Stream, o.Seq, o.Attempts)
		d := devices[o.Device]
		if d.Backend.Classical() {
			classical = append(classical, classicalJob{kind: d.Backend, problem: r.Problem, init: r.InitialState, reads: reads, rng: rs, want: o.Best.Energy})
			continue
		}
		sp, tp := r.Sp, r.Tp
		if sp == 0 {
			sp = 0.45
		}
		if tp == 0 {
			tp = 1
		}
		anneal = append(anneal, annealJob{
			dev: o.Device, sp: sp, tp: tp, problem: r.Problem, init: r.InitialState,
			reads: reads, rng: rs, group: -1, want: o.Best.Energy, wantExact: true,
		})
	}
	return anneal, classical
}

type leaseKey struct {
	dev    int
	sp, tp float64
}

type prepKey struct {
	lease leaseKey
	hash  uint64
}

// replayAnneal re-runs the annealer work of one fleet.Serve: one lease per
// (device, schedule) as the fleet compiles them, one PrepareProblem per
// distinct (lease, problem) as its prepared-problem cache does, and one
// RunPrepared per frame (RunPreparedMulti per ensemble frame and lease).
func (lg *ledger) replayAnneal(devices []fleet.Device, jobs []annealJob) error {
	if len(jobs) == 0 {
		return nil
	}
	leases := map[leaseKey]*annealer.Lease{}
	var keys []leaseKey
	for _, j := range jobs {
		k := leaseKey{j.dev, j.sp, j.tp}
		if _, ok := leases[k]; !ok {
			leases[k] = nil
			keys = append(keys, k)
		}
	}
	err := lg.measure("annealer.lease", func() error {
		for _, k := range keys {
			sc, err := annealer.Reverse(k.sp, k.tp)
			if err != nil {
				return err
			}
			d := devices[k.dev]
			p := annealer.Params{
				Schedule: sc, Engine: d.Engine, Profile: d.Profile,
				SweepsPerMicrosecond: d.SweepsPerMicrosecond, ICE: d.ICE,
				Faults: d.Faults.WithoutProgrammingFailures(), Parallelism: 1,
			}
			var l *annealer.Lease
			if d.QPU != nil {
				l, err = d.QPU.Lease(p)
			} else {
				l, err = annealer.NewLease(p)
			}
			if err != nil {
				return err
			}
			leases[k] = l
		}
		return nil
	})
	if err != nil {
		return err
	}

	preps := map[prepKey]*annealer.Prepared{}
	problemOf := map[prepKey]*qubo.Ising{}
	var order []prepKey
	for _, j := range jobs {
		pk := prepKey{leaseKey{j.dev, j.sp, j.tp}, j.problem.ContentHash()}
		if _, ok := problemOf[pk]; !ok {
			problemOf[pk] = j.problem
			order = append(order, pk)
		}
	}
	lg.acc["annealer.prepare_calls"] += float64(len(order))
	if err := lg.measure("annealer.prepare", func() error {
		for _, pk := range order {
			prep, err := leases[pk.lease].PrepareProblem(problemOf[pk])
			if err != nil {
				return err
			}
			preps[pk] = prep
		}
		return nil
	}); err != nil {
		return err
	}
	// The Chimera embedding step of those compiles, on its own.
	if err := lg.measure("chimera.embed", func() error {
		for _, pk := range order {
			q := devices[pk.lease.dev].QPU
			if q == nil {
				continue
			}
			is := problemOf[pk]
			m := chimera.MinGridFor(is.N)
			if m > q.Grid {
				m = q.Grid
			}
			emb, err := chimera.EmbedClique(chimera.NewGraph(m), is.N)
			if err != nil {
				return err
			}
			cs := q.ChainStrength
			if cs == 0 {
				cs = chimera.RecommendedChainStrength(is)
			}
			if _, err := emb.EmbedIsing(is, cs); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	for _, j := range jobs {
		k := leaseKey{j.dev, j.sp, j.tp}
		sc := leases[k].Schedule()
		spm := devices[j.dev].SweepsPerMicrosecond
		if spm == 0 {
			spm = 100
		}
		lg.acc["annealer.reads"] += float64(j.reads)
		lg.acc["annealer.sweeps"] += float64(j.reads) * math.Max(1, math.Round(sc.Duration()*spm))
	}
	check := func(j annealJob, res *annealer.Result) error {
		got := res.Best.Energy
		if j.wantExact {
			if e := j.problem.Energy(j.init); e < got {
				got = e
			}
			if got != j.want {
				return fmt.Errorf("replayed anneal best %g, served %g", got, j.want)
			}
		} else if j.want > got+energyTol(got) {
			return fmt.Errorf("replayed arm best %g beats served answer %g", got, j.want)
		}
		return nil
	}

	if jobs[0].group < 0 {
		lg.acc["annealer.frames"] += float64(len(jobs))
		return lg.measure("annealer.run", func() error {
			for _, j := range jobs {
				pk := prepKey{leaseKey{j.dev, j.sp, j.tp}, j.problem.ContentHash()}
				res, err := leases[pk.lease].RunPrepared(preps[pk], j.init, j.reads, j.rng)
				if err != nil {
					return err
				}
				if err := check(j, res); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// Ensemble: one RunPreparedMulti per (frame, lease).
	type groupKey struct {
		group int
		pk    prepKey
	}
	groups := map[groupKey][]annealJob{}
	var gorder []groupKey
	frames := map[int]bool{}
	for _, j := range jobs {
		gk := groupKey{j.group, prepKey{leaseKey{j.dev, j.sp, j.tp}, j.problem.ContentHash()}}
		if _, ok := groups[gk]; !ok {
			gorder = append(gorder, gk)
		}
		groups[gk] = append(groups[gk], j)
		frames[j.group] = true
	}
	lg.acc["annealer.frames"] += float64(len(frames))
	return lg.measure("annealer.arms", func() error {
		for _, gk := range gorder {
			js := groups[gk]
			runs := make([]annealer.PreparedRun, len(js))
			for i, j := range js {
				runs[i] = annealer.PreparedRun{InitialState: j.init, NumReads: j.reads, Rng: j.rng}
			}
			results, errs, err := leases[gk.pk.lease].RunPreparedMulti(preps[gk.pk], runs)
			if err != nil {
				return err
			}
			for i, j := range js {
				if errs[i] != nil {
					return errs[i]
				}
				if err := check(j, results[i]); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// classicalJob is one frame served by a classical backend.
type classicalJob struct {
	kind    fleet.BackendKind
	problem *qubo.Ising
	init    []int8
	reads   int
	rng     *rng.Source
	want    float64
}

// Serving-scale classical defaults, as fleet.ClassicalParams fills them.
var (
	classicalSA = qubo.SAOptions{Sweeps: 300, BetaStart: 0.1, BetaEnd: 10}
	classicalPT = qubo.PTOptions{Replicas: 4, Sweeps: 200, BetaMin: 0.1, BetaMax: 10, SwapInterval: 5}
)

// replayClassical re-runs the SA and PT reads of classically served
// frames with the fleet's per-read RNG keys.
func (lg *ledger) replayClassical(jobs []classicalJob) error {
	for _, kind := range []fleet.BackendKind{fleet.BackendSimulatedAnnealing, fleet.BackendParallelTempering} {
		name := "qubo.sa"
		if kind == fleet.BackendParallelTempering {
			name = "qubo.pt"
		}
		err := lg.measure(name, func() error {
			for _, j := range jobs {
				if j.kind != kind {
					continue
				}
				lg.acc[name+"_frames"]++
				best := math.Inf(1)
				for k := 0; k < j.reads; k++ {
					var s qubo.Sample
					if kind == fleet.BackendSimulatedAnnealing {
						s = qubo.SimulatedAnnealingFrom(j.problem, j.rng.Split(uint64(k)), j.init, classicalSA)
					} else {
						s = qubo.ParallelTempering(j.problem, j.rng.Split(uint64(k)), classicalPT)
					}
					best = math.Min(best, s.Energy)
				}
				best = math.Min(best, j.problem.Energy(j.init))
				if best != j.want {
					return fmt.Errorf("replayed %s best %g, served %g", kind, best, j.want)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- per-workload replays --------------------------------------------

func (c *uplinkCall) replay(res *callResult, lg *ledger) error {
	var specs []instance.Spec
	for _, in := range c.insts {
		specs = append(specs, in.Spec)
	}
	if err := lg.synthesize(specs); err != nil {
		return err
	}
	jobs, _ := fleetJobs(c.devices, c.seed, res.reqs, res.fleet.Outcomes, uplinkReads)
	return lg.replayAnneal(c.devices, jobs)
}

func (c *hybridCall) replay(res *callResult, lg *ledger) error {
	if err := lg.synthesize(c.specs); err != nil {
		return err
	}
	jobs, cl := fleetJobs(c.devices, c.seed, c.reqs, res.fleet.Outcomes, hybridReads)
	if err := lg.replayAnneal(c.devices, jobs); err != nil {
		return err
	}
	return lg.replayClassical(cl)
}

func (c *ensembleCall) replay(res *callResult, lg *ledger) error {
	var specs []instance.Spec
	for _, in := range c.insts {
		specs = append(specs, in.Spec)
	}
	if err := lg.synthesize(specs); err != nil {
		return err
	}
	grid := c.config(1).SpGrid
	plan := core.PlanArms(ensembleK, len(grid))
	var jobs []annealJob
	var pooled [][][]qubo.Sample
	for fi, eo := range res.ensemble.Outcomes {
		var arms [][]qubo.Sample
		for _, o := range eo.Arms {
			if o.Shed || o.Device < 0 {
				continue
			}
			arms = append(arms, o.Samples)
			ai := o.Stream - eo.Stream*res.ensemble.Arms
			a := plan[ai]
			cand := res.candidates[eo.Stream][a.Candidate]
			jobs = append(jobs, annealJob{
				dev: o.Device, sp: grid[a.SpIndex], tp: 1,
				problem: c.insts[eo.Stream].Reduction.Ising, init: cand,
				reads: ensembleReads, rng: frameRng(c.seed, o.Stream, o.Seq, o.Attempts),
				group: fi, want: eo.Best.Energy,
			})
		}
		pooled = append(pooled, arms)
	}
	if err := lg.replayAnneal(c.fleet.Devices, jobs); err != nil {
		return err
	}
	return lg.measure("mimo.fuse", func() error {
		for fi, arms := range pooled {
			llrs, err := mimo.FuseLLRs(arms, 0, 0)
			if err != nil {
				return err
			}
			want := res.ensemble.Outcomes[fi].FusedLLRs
			for i := range llrs {
				if llrs[i] != want[i] {
					return fmt.Errorf("replayed fusion differs at spin %d", i)
				}
			}
		}
		return nil
	})
}

func (c *cityCall) replay(res *callResult, lg *ledger) error {
	if err := lg.synthesize(c.specs); err != nil {
		return err
	}
	ctx := context.Background()
	// The same tier without tracer, registry or monitor.
	var bare *cran.Result
	if err := lg.measure("cran.bare", func() error {
		var err error
		bare, err = cran.Serve(ctx, c.config(1, nil, nil), c.reqs)
		return err
	}); err != nil {
		return err
	}
	if digest(&callResult{answers: cityAnswers(bare)}) != digest(&callResult{answers: cityAnswers(res.cran)}) {
		return fmt.Errorf("untraced tier answers differ from the traced call's")
	}
	// Each shard's fleet.Serve on exactly the requests the router
	// admitted to it, with the shard's seed and label.
	perShard := make([][]fleet.Request, len(c.shards))
	byKey := map[[3]int]cran.Request{}
	for _, r := range c.reqs {
		byKey[[3]int{r.Cell, r.UE, r.Seq}] = r
	}
	for _, o := range res.cran.Outcomes {
		if o.RouterShed || o.Shard < 0 {
			continue
		}
		r := byKey[[3]int{o.Cell, o.UE, o.Seq}]
		perShard[o.Shard] = append(perShard[o.Shard], fleet.Request{
			Stream: cran.StreamID(r.Cell, r.UE), Seq: r.Seq,
			Arrival: r.Arrival, Deadline: r.Deadline,
			Problem: r.Problem, InitialState: r.InitialState,
			Sp: r.Sp, Tp: r.Tp, NumReads: r.NumReads,
		})
	}
	seeds := rng.New(c.seed).SplitString("cran/shard-seed")
	shardOut := make([]*fleet.Result, len(c.shards))
	cfg := c.config(1, nil, nil)
	if err := lg.measure("fleet.serve", func() error {
		for s, reqs := range perShard {
			if len(reqs) == 0 {
				continue
			}
			fc := cfg.Fleet
			fc.Devices = c.shards[s]
			fc.Seed = seeds.Split(uint64(s)).Uint64()
			fc.ShardLabel = fmt.Sprint(s)
			out, err := fleet.Serve(ctx, fc, reqs)
			if err != nil {
				return err
			}
			shardOut[s] = out
		}
		return nil
	}); err != nil {
		return err
	}
	for s, out := range shardOut {
		if out == nil {
			continue
		}
		jobs, _ := fleetJobs(c.shards[s], seeds.Split(uint64(s)).Uint64(), perShard[s], out.Outcomes, cityReads)
		if err := lg.replayAnneal(c.shards[s], jobs); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	// Export cost of the call's trace, to a counting discard writer.
	var cw countingWriter
	if err := lg.measure("telemetry.export", func() error { return res.tracer.WriteJSONL(&cw) }); err != nil {
		return err
	}
	lg.acc["telemetry.export_bytes"] += float64(cw.n)
	lg.acc["telemetry.records"] += float64(res.tracer.Len())
	return nil
}

func cityAnswers(r *cran.Result) []frameAnswer {
	out := make([]frameAnswer, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = frameAnswer{spins: o.Frame.Best.Spins, energy: o.Frame.Best.Energy, finish: o.Frame.Finish}
	}
	return out
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// ---- the ledger table and per-layer metrics ----------------------------

// ledgerRow is one layer's CPU per call: inclusive, self, and self's share
// of the untraced call CPU.
type ledgerRow struct {
	Layer string  `json:"layer"`
	CPUMs float64 `json:"cpu_ms"`
	Self  float64 `json:"self_ms"`
	Share float64 `json:"share"`
	Via   string  `json:"measured_by"`
}

// perLayer lists the per-layer metrics in BENCHMARK.json order with units.
var perLayer = []struct{ name, unit string }{
	{"instance.synthesize_ms", "ms"},
	{"mimo.reduce_us", "us"},
	{"qubo.greedy_us", "us"},
	{"core.topk_us", "us"},
	{"annealer.prepare_ms", "ms"},
	{"annealer.prepare_calls", "count"},
	{"annealer.prep_hit_ratio", "ratio"},
	{"annealer.frame_ms", "ms"},
	{"annealer.read_us", "us"},
	{"annealer.sweep_ns", "ns"},
	{"annealer.arms_ms", "ms"},
	{"chimera.embed_us", "us"},
	{"mimo.fuse_us", "us"},
	{"qubo.sa_frame_ms", "ms"},
	{"qubo.pt_frame_ms", "ms"},
	{"fleet.serve_cpu_ms", "ms"},
	{"fleet.self_cpu_ms", "ms"},
	{"fleet.batch_size_mean", "frames"},
	{"fleet.queue_us_p90", "sim-us"},
	{"fleet.retries", "count"},
	{"fleet.shed.fleet-overload", "count"},
	{"fleet.shed.stream-queue-full", "count"},
	{"fleet.shed.deadline-expired", "count"},
	{"fleet.shed.retries-exhausted", "count"},
	{"fleet.shed.device-unavailable", "count"},
	{"fleet.shed.no-compatible-backend", "count"},
	{"fleet.route_classical_frac", "ratio"},
	{"cran.serve_cpu_ms", "ms"},
	{"cran.self_cpu_ms", "ms"},
	{"cran.admitted", "count"},
	{"cran.router_shed", "count"},
	{"telemetry.records_per_frame", "records"},
	{"telemetry.export_ms", "ms"},
	{"telemetry.export_kb_per_frame", "KiB"},
	{"telemetry.overhead_cpu_ms", "ms"},
	{"slo.finish_ms", "ms"},
	{"slo.buffered_records", "count"},
	{"ledger.annealer_share", "ratio"},
	{"ledger.fleet_share", "ratio"},
	{"ledger.cran_share", "ratio"},
	{"ledger.slo_share", "ratio"},
	{"ledger.telemetry_share", "ratio"},
	{"ledger.qubo_share", "ratio"},
	{"ledger.mimo_share", "ratio"},
	{"ledger.core_share", "ratio"},
	{"ledger.accounted_ratio", "ratio"},
	{"ledger.trace_overhead_pct", "%"},
}

// finish turns the accumulated replays into the ledger rows and the
// per-layer metrics. base is the untraced call CPU (ms per call).
func (lg *ledger) finish(base float64, det map[string]float64) (map[string]metric, []ledgerRow, []span) {
	a := lg.acc
	n := math.Max(1, float64(lg.call))
	per := func(k string) float64 { return a[k] / n }
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}

	annealIncl := per("annealer.lease") + per("annealer.prepare") + per("annealer.run") + per("annealer.arms")
	chimeraCPU := per("chimera.embed")
	quboClassical := per("qubo.sa") + per("qubo.pt")
	fuse := per("mimo.fuse")
	call := per("call")

	var rows []ledgerRow
	add := func(layer string, incl, self float64, via string) {
		rows = append(rows, ledgerRow{Layer: layer, CPUMs: incl, Self: self, Share: div(self, base), Via: via})
	}
	var fleetIncl, fleetSelf, cranIncl, cranSelf, teleSelf, sloSelf float64
	switch lg.workload {
	case "city-cran":
		cranIncl = per("serve")
		fleetIncl = per("fleet.serve")
		teleSelf = cranIncl - per("cran.bare")
		cranSelf = per("cran.bare") - fleetIncl
		sloSelf = per("slo.finish")
		add("slo", sloSelf, sloSelf, "Monitor.Finish in the call")
		add("telemetry", teleSelf, teleSelf, "cran.Serve with minus without tracer/registry/monitor")
		add("cran", per("cran.bare"), cranSelf, "cran.Serve minus per-shard fleet.Serve replays")
	default:
		fleetIncl = per("serve")
	}
	fleetSelf = fleetIncl - annealIncl - quboClassical - fuse
	add("fleet", fleetIncl, fleetSelf, "fleet.Serve minus annealer/qubo/fuse replays")
	add("annealer", annealIncl, annealIncl-chimeraCPU, "Lease + PrepareProblem + RunPrepared(Multi) replays")
	add("chimera", chimeraCPU, chimeraCPU, "EmbedClique + EmbedIsing replays")
	quboIncl := per("front.qubo") + quboClassical
	mimoIncl := per("front.mimo") + fuse
	coreIncl := per("front.core")
	if quboIncl > 0 {
		add("qubo", quboIncl, quboIncl, "GreedySearchIsing in the call; SA/PT replays")
	}
	if mimoIncl > 0 {
		add("mimo", mimoIncl, mimoIncl, "Reduce in the call; FuseLLRs replay")
	}
	if coreIncl > 0 {
		add("core", coreIncl, coreIncl, "TopKCandidates in the call")
	}
	accounted := 0.0
	for _, r := range rows {
		accounted += r.Self
	}
	glue := call - accounted
	add("(call glue)", glue, glue, "traced call CPU minus the layers above")
	accounted += glue

	shareOf := func(layer string) float64 {
		for _, r := range rows {
			if r.Layer == layer {
				return r.Share
			}
		}
		return 0
	}
	frames := math.Max(1, a["frames"])
	m := map[string]float64{
		"instance.synthesize_ms":        div(a["instance.synthesize"], a["instance.count"]),
		"mimo.reduce_us":                1e3 * a["front.mimo"] / frames,
		"qubo.greedy_us":                1e3 * a["front.qubo"] / frames,
		"core.topk_us":                  1e3 * a["front.core"] / frames,
		"annealer.prepare_ms":           div(a["annealer.prepare"], a["annealer.prepare_calls"]),
		"annealer.prepare_calls":        per("annealer.prepare_calls"),
		"annealer.frame_ms":             div(a["annealer.run"]+a["annealer.arms"], a["annealer.frames"]),
		"annealer.read_us":              1e3 * div(a["annealer.run"]+a["annealer.arms"], a["annealer.reads"]),
		"annealer.sweep_ns":             1e6 * div(a["annealer.run"]+a["annealer.arms"], a["annealer.sweeps"]),
		"annealer.arms_ms":              div(a["annealer.arms"], a["annealer.frames"]),
		"chimera.embed_us":              1e3 * div(a["chimera.embed"], a["annealer.prepare_calls"]),
		"mimo.fuse_us":                  1e3 * a["mimo.fuse"] / frames,
		"qubo.sa_frame_ms":              div(a["qubo.sa"], a["qubo.sa_frames"]),
		"qubo.pt_frame_ms":              div(a["qubo.pt"], a["qubo.pt_frames"]),
		"fleet.serve_cpu_ms":            fleetIncl,
		"fleet.self_cpu_ms":             fleetSelf,
		"cran.serve_cpu_ms":             cranIncl,
		"cran.self_cpu_ms":              cranSelf,
		"telemetry.overhead_cpu_ms":     teleSelf,
		"telemetry.export_ms":           per("telemetry.export"),
		"telemetry.records_per_frame":   a["telemetry.records"] / frames,
		"telemetry.export_kb_per_frame": a["telemetry.export_bytes"] / 1024 / frames,
		"slo.finish_ms":                 sloSelf,
		"slo.buffered_records":          per("slo.records"),
		"ledger.annealer_share":         shareOf("annealer") + shareOf("chimera"),
		"ledger.fleet_share":            shareOf("fleet"),
		"ledger.cran_share":             shareOf("cran"),
		"ledger.slo_share":              shareOf("slo"),
		"ledger.telemetry_share":        shareOf("telemetry"),
		"ledger.qubo_share":             shareOf("qubo"),
		"ledger.mimo_share":             shareOf("mimo"),
		"ledger.core_share":             shareOf("core"),
		"ledger.accounted_ratio":        div(accounted, base),
		"ledger.trace_overhead_pct":     100 * div(call-base, base),
	}
	for k, v := range det {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	out := map[string]metric{}
	for _, pl := range perLayer {
		out[pl.name] = metric{m[pl.name], pl.unit}
	}
	return out, rows, lg.spans
}

// writeLedger prints the "where the time goes" table.
func writeLedger(w io.Writer, workload string, base float64, rows []ledgerRow) {
	fmt.Fprintf(w, "# where the time goes: %s, untraced call CPU %.3f ms\n", workload, base)
	fmt.Fprintf(w, "# %-12s %12s %12s %8s  %s\n", "layer", "cpu_ms/call", "self_ms/call", "share", "measured by")
	sorted := append([]ledgerRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Self > sorted[j].Self })
	for _, r := range sorted {
		fmt.Fprintf(w, "# %-12s %12.3f %12.3f %7.1f%%  %s\n", r.Layer, r.CPUMs, r.Self, 100*r.Share, r.Via)
	}
	fmt.Fprintf(w, "# rng draws run inside the annealer and qubo kernels and are counted there.\n")
}
