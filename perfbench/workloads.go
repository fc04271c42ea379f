package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/cran"
	"repro/internal/fleet"
	"repro/internal/instance"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/qubo"
	"repro/internal/rng"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// workload is one benchmark workload: a why-sentence and a set-up that
// turns a seed into a fixed pool of serving calls. The timed loop cycles
// through the pool; the first pass over it fixes every deterministic
// metric, so those cannot depend on how many calls fit in a run.
type workload struct {
	name, why string
	setup     func(seed uint64) ([]call, error)
}

// call is one serving call: a TTI or time window of frames handed to
// fleet.Serve, fleet.ServeEnsemble or cran.Serve.
type call interface {
	// serve runs the call with the given execute-phase worker count.
	// Per-layer CPU is recorded into sub when it is non-nil.
	serve(ctx context.Context, workers int, sub *subTimes) (*callResult, error)
	// replay re-runs the layers below the call on the call's own inputs
	// and records their CPU (traced runs only).
	replay(res *callResult, lg *ledger) error
}

// frameAnswer is one frame's answer as the benchmark checks and scores it.
type frameAnswer struct {
	problem *qubo.Ising
	spins   []int8
	energy  float64
	// soft marks frames whose answer must carry per-spin LLRs.
	soft bool
	llrs []float64

	truth truth
	// Simulated µs.
	arrival, finish, deadline float64
	// shed: answered by the degradation ladder; missed: finished after
	// its deadline.
	shed, missed bool
}

// truth is a frame's ground truth: the transmitted spins and the ML
// (Ising ground-state) energy witness.
type truth struct {
	tx     []int8
	ground float64
}

// callResult is one call's output plus the serving reports the
// deterministic layer counts come from.
type callResult struct {
	answers  []frameAnswer
	served   int
	makespan float64 // simulated µs
	counts   counts
	// Workload-specific output kept for the traced replay.
	fleet    *fleet.Result
	reqs     []fleet.Request
	ensemble *fleet.EnsembleResult
	// candidates are each ensemble frame's top-K candidates.
	candidates [][][]int8
	cran       *cran.Result
	monitor    *slo.Monitor
	tracer     *telemetry.Tracer
	records    int // monitor records buffered before Finish
}

// counts are the deterministic per-layer tallies of one call.
type counts struct {
	batches, batchFrames int
	queueUs              []float64 // queueing delay of every dispatched frame
	retries              int
	shed                 map[string]int
	classical            int
	outcomes             int
	admitted, routerShed int
	prepHits, prepMisses uint64
}

func (c *counts) addReport(rep fleet.Report) {
	c.batches += rep.Batches
	c.batchFrames += int(rep.MeanBatchSize*float64(rep.Batches) + 0.5)
	c.retries += rep.Retries
	c.prepHits += rep.PrepCache.Hits
	c.prepMisses += rep.PrepCache.Misses
}

func (c *counts) addOutcome(o fleet.Outcome) {
	c.outcomes++
	if c.shed == nil {
		c.shed = map[string]int{}
	}
	if o.Shed {
		c.shed[o.ShedReason]++
	} else {
		c.queueUs = append(c.queueUs, o.QueueMicros)
	}
	// Backend is named only in heterogeneous pools.
	if o.Backend != "" && o.Backend != fleet.BackendQPUSim.String() {
		c.classical++
	}
}

// subTimes is the CPU a call spent in its own sub-steps (traced runs).
type subTimes struct {
	frontMimo, frontQubo, frontCore float64 // ms
	serve, finish                   float64 // ms
}

var workloads = []workload{
	{
		name:  "uplink-16qam",
		why:   "8-user 16-QAM noiseless TTIs on 4 embedded QPUs, 60 reads: the SVMC kernel is ~95% of CPU, so kernel work shows and serving work does not",
		setup: setupUplink,
	},
	{
		name:  "city-cran",
		why:   "64 cells x 2 UEs over 4 shards, overloaded, live tracer + SLO monitor: serving, shedding, telemetry and SLO costs show; the prep cache hits",
		setup: setupCity,
	},
	{
		name:  "ensemble-soft",
		why:   "4-user 16-QAM at 11 dB, top-4 candidates x 3 s_p arms, fused LLRs: multi-arm batching, retained samples and candidate ranking show",
		setup: setupEnsemble,
	},
	{
		name:  "hybrid-deadline",
		why:   "easy 5 ms and hard 60 ms deadline streams on a 2 QPU + PT + SA pool with hardness/deadline routing: classical backends and the router show",
		setup: setupHybrid,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Pool sizes: calls per pool (the first pass fixes the deterministic
// metrics) chosen so a 30 s run on a 2-vCPU host serves every slot four
// or more times (never fewer than minPasses).
const (
	uplinkCalls   = 16
	uplinkStreams = 8
	uplinkReads   = 60
	uplinkTTI     = 1000.0 // µs: arrivals jitter inside one TTI

	cityCalls    = 64
	cityCells    = 64
	cityUEs      = 2
	cityWindow   = 10_000.0 // µs
	cityRate     = 72.0     // frames/s per UE at diurnal level 1
	cityReads    = 30
	cityDeadline = 20_000.0 // µs
	cityShards   = 4
	cityDevices  = 4

	ensembleCalls  = 24
	ensembleFrames = 4
	ensembleUsers  = 4
	ensembleSNRdB  = 11.0
	ensembleK      = 4
	ensembleReads  = 30
	ensembleGap    = 500.0 // µs: mean gap between frame arrivals

	hybridCalls        = 24
	hybridStreams      = 8
	hybridPerStream    = 6
	hybridReads        = 30
	hybridEasyDeadline = 5_000.0
	hybridHardDeadline = 60_000.0
	hybridInterval     = 1_000.0 // µs: mean gap per stream, 2x the hybrid figure's base rate
)

// callSeed derives call i's seed from the workload seed.
func callSeed(root *rng.Source, i int) uint64 { return root.Split(uint64(i)).Uint64() }

// poissonArrivals draws n open-loop arrival instants (simulated µs) with
// exponential gaps of the given mean.
func poissonArrivals(r *rng.Source, n int, meanGap float64) []float64 {
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		out[i] = t
		t += -math.Log(1-r.Float64()) * meanGap
	}
	return out
}

// instTruth is an instance's ground truth.
func instTruth(in *instance.Instance) (truth, error) {
	tx, err := in.Reduction.EncodeSymbols(in.Transmitted)
	if err != nil {
		return truth{}, err
	}
	return truth{tx: tx, ground: in.GroundEnergy}, nil
}

// ---- uplink-16qam ----------------------------------------------------

type uplinkCall struct {
	seed     uint64
	devices  []fleet.Device
	insts    []*instance.Instance
	truths   []truth
	arrivals []float64
}

func setupUplink(seed uint64) ([]call, error) {
	root := rng.New(seed).SplitString("perfbench/uplink")
	devices := fleet.DefaultDevices(4)
	calls := make([]call, uplinkCalls)
	for i := range calls {
		cs := callSeed(root, i)
		insts, err := instance.Corpus(instance.Spec{Users: 8, Scheme: modulation.QAM16}, cs, uplinkStreams)
		if err != nil {
			return nil, err
		}
		c := &uplinkCall{seed: cs, devices: devices, insts: insts}
		jr := rng.New(cs).SplitString("arrivals")
		for _, in := range insts {
			t, err := instTruth(in)
			if err != nil {
				return nil, err
			}
			c.truths = append(c.truths, t)
			c.arrivals = append(c.arrivals, jr.Float64()*uplinkTTI)
		}
		calls[i] = c
	}
	return calls, nil
}

func (c *uplinkCall) config(workers int) fleet.Config {
	return fleet.Config{
		Devices:          c.devices,
		NumReads:         uplinkReads,
		StreamQueueBound: 64,
		Seed:             c.seed,
		Workers:          workers,
	}
}

func (c *uplinkCall) serve(ctx context.Context, workers int, sub *subTimes) (*callResult, error) {
	t0 := cpuMs(sub)
	reds := make([]*mimo.Reduction, len(c.insts))
	for s, in := range c.insts {
		red, err := mimo.Reduce(in.Problem)
		if err != nil {
			return nil, err
		}
		reds[s] = red
	}
	t1 := cpuMs(sub)
	reqs := make([]fleet.Request, len(c.insts))
	for s, red := range reds {
		reqs[s] = fleet.Request{
			Stream: s, Arrival: c.arrivals[s],
			Problem:      red.Ising,
			InitialState: qubo.GreedySearchIsing(red.Ising, qubo.OrderDescending),
		}
	}
	t2 := cpuMs(sub)
	out, err := fleet.Serve(ctx, c.config(workers), reqs)
	if err != nil {
		return nil, err
	}
	if sub != nil {
		t3 := cpuMs(sub)
		sub.frontMimo, sub.frontQubo, sub.serve = t1-t0, t2-t1, t3-t2
	}
	return fleetResult(out, reqs, func(o fleet.Outcome) (truth, bool) {
		return c.truths[o.Stream], true
	})
}

// fleetResult scores a plain fleet.Serve result.
func fleetResult(out *fleet.Result, reqs []fleet.Request, truthOf func(fleet.Outcome) (truth, bool)) (*callResult, error) {
	deadline := map[[2]int]float64{}
	problem := map[[2]int]*qubo.Ising{}
	for _, r := range reqs {
		deadline[[2]int{r.Stream, r.Seq}] = r.Deadline
		problem[[2]int{r.Stream, r.Seq}] = r.Problem
	}
	res := &callResult{fleet: out, reqs: reqs, served: out.Report.Served, makespan: out.Report.MakespanMicros}
	res.counts.addReport(out.Report)
	for _, o := range out.Outcomes {
		res.counts.addOutcome(o)
		k := [2]int{o.Stream, o.Seq}
		tr, ok := truthOf(o)
		if !ok {
			return nil, fmt.Errorf("frame (%d, %d) has no ground truth", o.Stream, o.Seq)
		}
		res.answers = append(res.answers, frameAnswer{
			problem: problem[k], spins: o.Best.Spins, energy: o.Best.Energy,
			truth: tr, arrival: o.Arrival, finish: o.Finish, deadline: deadline[k],
			shed: o.Shed, missed: o.DeadlineMissed,
		})
	}
	if len(res.answers) != len(reqs) {
		return nil, fmt.Errorf("%d answers for %d frames", len(res.answers), len(reqs))
	}
	return res, nil
}

// ---- city-cran -------------------------------------------------------

type cityCall struct {
	seed   uint64
	specs  []instance.Spec
	shards [][]fleet.Device
	reqs   []cran.Request
	truth  map[uint64][]truthEntry
}

type truthEntry struct {
	is *qubo.Ising
	t  truth
}

func cityWorkload(seed uint64) cran.Workload {
	return cran.Workload{
		Cells: cityCells, UEsPerCell: cityUEs,
		DurationMicros:  cityWindow,
		FramesPerSecond: cityRate,
		Diurnal:         cran.DefaultDiurnal(),
		BurstProb:       0.25, BurstFactor: 2.5,
		Instances:      3,
		NumReads:       cityReads,
		DeadlineMicros: cityDeadline,
		Seed:           seed,
	}
}

func setupCity(seed uint64) ([]call, error) {
	root := rng.New(seed).SplitString("perfbench/city")
	shards := make([][]fleet.Device, cityShards)
	for s := range shards {
		shards[s] = fleet.DefaultDevices(cityDevices)
	}
	calls := make([]call, cityCalls)
	for i := range calls {
		cs := callSeed(root, i)
		w := cityWorkload(cs)
		reqs, err := w.Generate()
		if err != nil {
			return nil, err
		}
		// The generator keeps no ground truth; re-derive its per-class
		// corpora the way it does and match frames by problem content.
		c := &cityCall{seed: cs, shards: shards, reqs: reqs, truth: map[uint64][]truthEntry{}}
		wr := rng.New(w.Seed)
		for ci, cl := range cran.DefaultClasses() {
			insts, err := instance.Corpus(instance.Spec{Users: cl.Users, Scheme: cl.Scheme},
				wr.SplitString("cran/corpus").Split(uint64(ci)).Uint64(), w.Instances)
			if err != nil {
				return nil, err
			}
			for _, in := range insts {
				t, err := instTruth(in)
				if err != nil {
					return nil, err
				}
				c.specs = append(c.specs, in.Spec)
				h := in.Reduction.Ising.ContentHash()
				c.truth[h] = append(c.truth[h], truthEntry{in.Reduction.Ising, t})
			}
		}
		calls[i] = c
	}
	return calls, nil
}

func (c *cityCall) truthOf(is *qubo.Ising) (truth, bool) {
	for _, e := range c.truth[is.ContentHash()] {
		if e.is.Equal(is) {
			return e.t, true
		}
	}
	return truth{}, false
}

func (c *cityCall) config(workers int, tr *telemetry.Tracer, reg *telemetry.Registry) cran.Config {
	return cran.Config{
		Shards: c.shards,
		Fleet: fleet.Config{
			BatchMax:         4,
			StreamQueueBound: 16,
			Workers:          workers,
		},
		AdmitQueueMicros: cityAdmitQueue,
		EstReadMicros:    cityEstRead,
		Seed:             c.seed,
		ShardWorkers:     workers,
		Trace:            tr,
		Metrics:          reg,
	}
}

// Router admission: a shard whose estimated backlog exceeds
// cityAdmitQueue µs sheds at arrival.
const (
	cityAdmitQueue = 20_000.0
	cityEstRead    = 125.0
)

func (c *cityCall) serve(ctx context.Context, workers int, sub *subTimes) (*callResult, error) {
	tracer := telemetry.NewTracer()
	mon := slo.NewMonitor(slo.Config{Specs: slo.DefaultSpecs(cityDeadline)})
	tracer.AddSink(mon)
	t0 := cpuMs(sub)
	out, err := cran.Serve(ctx, c.config(workers, tracer, telemetry.NewRegistry()), c.reqs)
	if err != nil {
		return nil, err
	}
	t1 := cpuMs(sub)
	buffered := mon.Len()
	if _, err := mon.Finish(); err != nil {
		return nil, err
	}
	if sub != nil {
		sub.serve, sub.finish = t1-t0, cpuMs(sub)-t1
	}
	res := &callResult{cran: out, tracer: tracer, records: buffered,
		served: out.Report.Served, makespan: out.Report.MakespanMicros}
	for _, rep := range out.ShardReports {
		res.counts.addReport(rep)
	}
	res.counts.admitted = out.Report.Admitted
	res.counts.routerShed = out.Report.RouterShed
	byKey := map[[3]int]cran.Request{}
	for _, r := range c.reqs {
		byKey[[3]int{r.Cell, r.UE, r.Seq}] = r
	}
	for _, o := range out.Outcomes {
		r := byKey[[3]int{o.Cell, o.UE, o.Seq}]
		if !o.RouterShed {
			res.counts.addOutcome(o.Frame)
		} else {
			if res.counts.shed == nil {
				res.counts.shed = map[string]int{}
			}
			res.counts.shed[o.Frame.ShedReason]++
			res.counts.outcomes++
		}
		tr, ok := c.truthOf(r.Problem)
		if !ok {
			return nil, fmt.Errorf("cell %d ue %d seq %d: no ground truth", o.Cell, o.UE, o.Seq)
		}
		res.answers = append(res.answers, frameAnswer{
			problem: r.Problem, spins: o.Frame.Best.Spins, energy: o.Frame.Best.Energy,
			truth: tr, arrival: r.Arrival, finish: o.Frame.Finish, deadline: r.Deadline,
			shed: o.Frame.Shed, missed: o.Frame.DeadlineMissed,
		})
	}
	if len(res.answers) != len(c.reqs) {
		return nil, fmt.Errorf("%d answers for %d frames", len(res.answers), len(c.reqs))
	}
	return res, nil
}

// ---- ensemble-soft ---------------------------------------------------

type ensembleCall struct {
	seed     uint64
	arrivals []float64
	insts    []*instance.Instance
	truths   []truth
	fleet    fleet.Config
}

func setupEnsemble(seed uint64) ([]call, error) {
	root := rng.New(seed).SplitString("perfbench/ensemble")
	devices := fleet.DefaultDevices(4)
	n0 := channel.NoiseVarianceForSNR(ensembleSNRdB, ensembleUsers)
	calls := make([]call, ensembleCalls)
	for i := range calls {
		cs := callSeed(root, i)
		insts, err := instance.Corpus(instance.Spec{
			Users: ensembleUsers, Scheme: modulation.QAM16,
			Channel: channel.Rayleigh, NoiseVariance: n0,
		}, cs, ensembleFrames)
		if err != nil {
			return nil, err
		}
		c := &ensembleCall{seed: cs, insts: insts, fleet: fleet.Config{
			Devices: devices, BatchMax: 4, StreamQueueBound: 64, Seed: cs,
		}}
		c.arrivals = poissonArrivals(rng.New(cs).SplitString("arrivals"), ensembleFrames, ensembleGap)
		for _, in := range insts {
			t, err := instTruth(in)
			if err != nil {
				return nil, err
			}
			c.truths = append(c.truths, t)
		}
		calls[i] = c
	}
	return calls, nil
}

func (c *ensembleCall) config(workers int) fleet.EnsembleConfig {
	fc := c.fleet
	fc.Workers = workers
	return fleet.EnsembleConfig{Fleet: fc, SpGrid: core.DefaultSpGrid(), ReadsPerArm: ensembleReads}
}

func (c *ensembleCall) serve(ctx context.Context, workers int, sub *subTimes) (*callResult, error) {
	t0 := cpuMs(sub)
	reds := make([]*mimo.Reduction, len(c.insts))
	for f, in := range c.insts {
		red, err := mimo.Reduce(in.Problem)
		if err != nil {
			return nil, err
		}
		reds[f] = red
	}
	t1 := cpuMs(sub)
	frames := make([]fleet.EnsembleFrame, len(reds))
	cr := rng.New(c.seed).SplitString("candidates")
	for f, red := range reds {
		cands, err := core.TopKCandidates(red, ensembleK, cr.Split(uint64(f)))
		if err != nil {
			return nil, err
		}
		frames[f] = fleet.EnsembleFrame{
			Stream: f, Arrival: c.arrivals[f],
			Problem: red.Ising, Candidates: cands,
		}
	}
	t2 := cpuMs(sub)
	out, err := fleet.ServeEnsemble(ctx, c.config(workers), frames)
	if err != nil {
		return nil, err
	}
	if sub != nil {
		t3 := cpuMs(sub)
		sub.frontMimo, sub.frontCore, sub.serve = t1-t0, t2-t1, t3-t2
	}
	res := &callResult{ensemble: out, makespan: out.Report.MakespanMicros}
	for _, f := range frames {
		res.candidates = append(res.candidates, f.Candidates)
	}
	res.counts.addReport(out.Report)
	for _, eo := range out.Outcomes {
		for _, a := range eo.Arms {
			res.counts.addOutcome(a)
		}
		shed := eo.Source == core.AnswerClassicalFallback
		if !shed {
			res.served++
		}
		res.answers = append(res.answers, frameAnswer{
			problem: frames[eo.Stream].Problem, spins: eo.Best.Spins, energy: eo.Best.Energy,
			soft: true, llrs: eo.FusedLLRs,
			truth: c.truths[eo.Stream], arrival: frames[eo.Stream].Arrival, finish: eo.Finish,
			shed: shed,
		})
	}
	if len(res.answers) != len(frames) {
		return nil, fmt.Errorf("%d answers for %d frames", len(res.answers), len(frames))
	}
	return res, nil
}

// ---- hybrid-deadline -------------------------------------------------

type hybridCall struct {
	seed    uint64
	specs   []instance.Spec
	devices []fleet.Device
	reqs    []fleet.Request
	truths  map[[2]int]truth
}

func setupHybrid(seed uint64) ([]call, error) {
	root := rng.New(seed).SplitString("perfbench/hybrid")
	devices := fleet.HybridDevices(2, 1, 1)
	calls := make([]call, hybridCalls)
	for i := range calls {
		cs := callSeed(root, i)
		hard, err := instance.Corpus(instance.Spec{Users: 8, Scheme: modulation.QAM16}, cs^0xA1, 4)
		if err != nil {
			return nil, err
		}
		easy, err := instance.Corpus(instance.Spec{Users: 3, Scheme: modulation.QPSK}, cs^0xB2, 4)
		if err != nil {
			return nil, err
		}
		c := &hybridCall{seed: cs, devices: devices, truths: map[[2]int]truth{}}
		for _, in := range append(append([]*instance.Instance(nil), hard...), easy...) {
			c.specs = append(c.specs, in.Spec)
		}
		ar := rng.New(cs).SplitString("arrivals")
		for s := 0; s < hybridStreams; s++ {
			arrivals := poissonArrivals(ar.Split(uint64(s)), hybridPerStream, hybridInterval)
			for q := 0; q < hybridPerStream; q++ {
				in, deadline := hard[(s+q)%len(hard)], hybridHardDeadline
				if s%2 == 0 {
					in, deadline = easy[(s+q)%len(easy)], hybridEasyDeadline
				}
				t, err := instTruth(in)
				if err != nil {
					return nil, err
				}
				c.truths[[2]int{s, q}] = t
				is := in.Reduction.Ising
				c.reqs = append(c.reqs, fleet.Request{
					Stream: s, Seq: q,
					Arrival:      arrivals[q],
					Deadline:     deadline,
					Problem:      is,
					InitialState: qubo.GreedySearchIsing(is, qubo.OrderDescending),
				})
			}
		}
		calls[i] = c
	}
	return calls, nil
}

func (c *hybridCall) config(workers int) fleet.Config {
	return fleet.Config{
		Devices:          c.devices,
		Route:            fleet.RouteHybrid,
		NumReads:         hybridReads,
		BatchMax:         4,
		StreamQueueBound: 64,
		Seed:             c.seed,
		Workers:          workers,
	}
}

func (c *hybridCall) serve(ctx context.Context, workers int, sub *subTimes) (*callResult, error) {
	t0 := cpuMs(sub)
	out, err := fleet.Serve(ctx, c.config(workers), c.reqs)
	if err != nil {
		return nil, err
	}
	if sub != nil {
		sub.serve = cpuMs(sub) - t0
	}
	return fleetResult(out, c.reqs, func(o fleet.Outcome) (truth, bool) {
		t, ok := c.truths[[2]int{o.Stream, o.Seq}]
		return t, ok
	})
}

// shedReasons lists the fleet's degradation-ladder rungs; router sheds
// are counted apart, as cran.router_shed.
var shedReasons = []string{
	fleet.ShedFleetOverload, fleet.ShedStreamQueueFull, fleet.ShedDeadlineExpired,
	fleet.ShedRetriesExhausted, fleet.ShedDeviceUnavailable, fleet.ShedNoCompatibleBackend,
}
