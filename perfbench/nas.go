package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"predictddl"
	"predictddl/internal/cluster"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/tensor"
)

// nas-sweep: one cifar10 predictor trained at predictddl.Train's default
// size, queried in process. An op is one generation of nasCandidates fresh
// random architectures, each priced on nasSizes cluster sizes by a single
// Predictor.PredictGraphBatch call.
const (
	nasCandidates = 8
	nasSizes      = 4
	nasKeep       = 400 // traced ops replayed
	// nasSetupReps is how many times an untraced run trains; setup_s is
	// the median.
	nasSetupReps = 3
)

// generation is one op's input.
type generation struct {
	graphs   []*graph.Graph
	clusters []cluster.Cluster
}

// newGeneration derives round r's candidates from the run seed alone.
func newGeneration(seed int64, r int, d predictddl.Dataset, spec cluster.ServerSpec) generation {
	rng := rand.New(rand.NewSource(mixSeed(seed, int64(r))))
	var gen generation
	cands := make([]*graph.Graph, nasCandidates)
	for i := range cands {
		cands[i] = predictddl.RandomArchitecture(rng.Int63(), d)
	}
	for _, k := range rng.Perm(maxServers)[:nasSizes] {
		cl := cluster.Homogeneous(k+1, spec)
		for _, g := range cands {
			gen.graphs = append(gen.graphs, g)
			gen.clusters = append(gen.clusters, cl)
		}
	}
	return gen
}

// nasPhase is the outcome of one sweep. Like the HTTP phases it keeps
// fixed-size tallies, not per-op records.
type nasPhase struct {
	lat latHist
	// winOps and winBusy split ops and batch-call time by the one-second
	// window of the sweep in which the op ended.
	winOps, winBusy []float64
	ops             int
	first           []float64     // round 0's answers, for the re-pricing check
	kept            []*generation // traced sweeps: the first nasKeep generations
	// counted sums the engine counters around the batch calls only.
	counted engineCounters
}

// rate is the median over the sweep's windows of generations per second
// of batch-call time, which keeps a short stall on a shared machine from
// moving the figure.
func (ph *nasPhase) rate() float64 {
	var rates []float64
	for i, n := range ph.winOps {
		if n > 0 {
			rates = append(rates, n/ph.winBusy[i])
		}
	}
	return median(rates)
}

// sweep prices generations until measure has passed. Each answer is
// checked between ops against Predictor.PredictGraph; with a registry the
// engine counters are read around the batch call, so the checks do not
// count, and with a tracer the call gets a span.
func sweep(p *predictddl.Predictor, spec cluster.ServerSpec, seed int64, measure time.Duration, tr *tracer, reg *predictddl.MetricsRegistry, rep *report) (*nasPhase, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measuredProcs))
	d := p.Dataset()
	windows := max(int(measure/time.Second), 1)
	ph := &nasPhase{winOps: make([]float64, windows), winBusy: make([]float64, windows)}
	start := time.Now()
	window := measure / time.Duration(windows)
	deadline := start.Add(measure)
	for r := 0; time.Now().Before(deadline); r++ {
		gen := newGeneration(seed, r, d, spec)
		var c0 engineCounters
		if reg != nil {
			c0 = readEngineCounters(reg)
		}
		t0 := time.Now()
		res, err := p.PredictGraphBatch(gen.graphs, gen.clusters)
		t1 := time.Now()
		if reg != nil {
			ph.counted = ph.counted.plus(readEngineCounters(reg).minus(c0))
		}
		if err != nil {
			return nil, fmt.Errorf("generation %d: %w", r, err)
		}
		ph.lat.add(t1.Sub(t0))
		ph.ops++
		if i := int(t1.Sub(start) / window); i < windows {
			ph.winOps[i]++
			ph.winBusy[i] += t1.Sub(t0).Seconds()
		}
		if tr != nil {
			tr.record("core.predict_batch", "", int64(r), t0, t1)
			if len(ph.kept) < nasKeep {
				ph.kept = append(ph.kept, &gen)
			}
		}
		failed := len(res) != len(gen.graphs)
		if failed {
			rep.problem("generation %d: %d answers for %d questions", r, len(res), len(gen.graphs))
		}
		for i := 0; !failed && i < len(res); i++ {
			err := res[i].Err
			if err == nil {
				err = checkPositive(res[i].Seconds)
			}
			if err == nil {
				var want float64
				want, err = p.PredictGraph(gen.graphs[i], gen.clusters[i])
				if err == nil && !sameBits(want, res[i].Seconds) {
					err = fmt.Errorf("batch answered %v, Predictor.PredictGraph %v", res[i].Seconds, want)
				}
			}
			if err != nil {
				rep.problem("generation %d item %d on %d servers: %v", r, i, gen.clusters[i].Size(), err)
				failed = true
			}
		}
		if r == 0 && !failed {
			for _, it := range res {
				ph.first = append(ph.first, it.Seconds)
			}
		}
		nFailed := 0
		if failed {
			nFailed = 1
		}
		rep.count("generation", 1, nFailed)
	}
	if ph.ops == 0 {
		return nil, fmt.Errorf("no generation finished")
	}
	return ph, nil
}

// repriceFirst prices round 0 again after the sweep, when its embeddings
// have long left the cache, and checks the bits did not change.
func repriceFirst(p *predictddl.Predictor, spec cluster.ServerSpec, seed int64, first []float64, rep *report) {
	if first == nil {
		return // round 0 failed its own checks
	}
	gen := newGeneration(seed, 0, p.Dataset(), spec)
	for i, g := range gen.graphs {
		got, err := p.PredictGraph(g, gen.clusters[i])
		if err != nil {
			rep.problem("re-pricing candidate %d: %v", i, err)
			continue
		}
		if !sameBits(got, first[i]) {
			rep.problem("re-pricing candidate %d on %d servers: %v, first priced %v", i, gen.clusters[i].Size(), got, first[i])
		}
	}
}

func runNASSweep(cfg config) (*report, error) {
	rep := newReport()
	reps := nasSetupReps
	if cfg.traced {
		reps = 1
	}
	p, setupS, err := timedSetup(reps, func() (*predictddl.Predictor, error) {
		return trainPredictor("cifar10", defaultSize)
	}, func(*predictddl.Predictor) {})
	if err != nil {
		return nil, err
	}
	spec, err := specOf(p)
	if err != nil {
		return nil, err
	}

	if !cfg.traced {
		ph, err := sweep(p, spec, cfg.seed, cfg.measure, nil, nil, rep)
		if err != nil {
			return nil, err
		}
		heap := liveHeapMB()
		repriceFirst(p, spec, cfg.seed, ph.first, rep)
		mape, err := nasHoldout(p, spec)
		if err != nil {
			return nil, err
		}
		rep.add("setup_s", setupS, "s")
		rep.add("ops_per_s", ph.rate(), "1/s")
		rep.add("op_p50_ms", ph.lat.quantile(0.50), "ms")
		rep.add("op_p99_ms", ph.lat.quantile(0.99), "ms")
		rep.add("predictions_per_s", ph.rate()*nasCandidates*nasSizes, "1/s")
		rep.add("holdout_mape_pct", mape, "%")
		rep.add("live_heap_mb", heap, "MB")
		rep.note("latency samples: %d ops (op_p99_ms is a tail only with >= 1000)", ph.ops)
		rep.note("generations per window: %v", ph.winOps)
		return rep, nil
	}

	tr := newTracer()
	var setupAcc setupLayers
	pl, err := replayPipeline(tr, "cifar10", defaultSize, p, &setupAcc, rep)
	if err != nil {
		return nil, err
	}
	reg := predictddl.NewMetricsRegistry()
	p.Engine().Instrument(reg)
	half := cfg.measure / 2
	m0 := readMem()
	plain, err := sweep(p, spec, cfg.seed, half, nil, nil, rep)
	if err != nil {
		return nil, err
	}
	m1 := readMem()
	// The traced half draws from a derived seed, so its candidates are as
	// unseen as the first half's.
	traced, err := sweep(p, spec, mixSeed(cfg.seed, -1), half, tr, reg, rep)
	if err != nil {
		return nil, err
	}

	rp := newReplayer(tr, map[string]*pipeline{"cifar10": pl})
	for r, gen := range traced.kept {
		rp.generation(int64(r), gen)
	}
	if rp.err != nil {
		return nil, fmt.Errorf("replay: %w", rp.err)
	}
	rep.add("graph.build_us", 0, "us")
	rep.add("graph.fingerprint_us", rp.steps.meanUS("graph.fingerprint"), "us")
	rep.add("graph.fromspec_us", 0, "us")
	rep.add("core.handler_us", 0, "us")
	rep.add("core.http_overhead_us", 0, "us")
	rep.add("core.unattributed_us", 0, "us")
	rep.add("core.embed_cache_hit_ratio", traced.counted.hitRatio(), "ratio")
	rep.add("core.batch_parallel_efficiency", rp.parallelEfficiency(tr.byOp("core.predict_batch")), "ratio")
	rep.add("ghn.embed_us", rp.steps.meanUS("ghn.embed"), "us")
	rep.add("ghn.embeds_per_op", float64(traced.counted.embeds)/float64(traced.ops), "count")
	addSetupLayers(rep, setupAcc)
	rep.add("regress.predict_us", rp.steps.meanUS("regress.predict"), "us")
	addGatewayLayers(rep, tr, &phase{})
	addRuntimeLayers(rep, m0, m1, plain.ops)
	rep.add("trace.overhead_pct", (plain.rate()-traced.rate())/plain.rate()*100, "%")
	if err := tr.write(spanPath("nas-sweep", cfg.seed)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}

// generation replays one generation's work serially on the rebuilt
// pipeline: fingerprint and embed each candidate, then fingerprint and
// regress each (candidate, cluster) item, and records the Σ of those times
// as the op's item time.
func (r *replayer) generation(op int64, gen *generation) {
	pl := r.pipes["cifar10"]
	var total time.Duration
	embs := map[*graph.Graph][]float64{}
	for _, g := range gen.graphs[:nasCandidates] {
		var key string
		var err error
		total += r.step("graph.fingerprint", op, func() { key = g.Fingerprint() })
		total += r.step("ghn.embed", op, func() { embs[g], err = pl.ghn.EmbedKeyed(g, key, ghn.Float64) })
		r.fail(err)
	}
	for i, g := range gen.graphs {
		var err error
		total += r.step("graph.fingerprint", op, func() { _ = g.Fingerprint() })
		feats := tensor.Concat(embs[g], gen.clusters[i].Features())
		total += r.step("regress.predict", op, func() { _, err = pl.model.Predict(feats) })
		r.fail(err)
	}
	r.itemSum[op] = total
}

// nasHoldout prices every held-out zoo model on 1–maxServers servers
// through the facade and returns the MAPE against the simulator.
func nasHoldout(p *predictddl.Predictor, spec cluster.ServerSpec) (float64, error) {
	truth, err := groundTruth(p.Dataset().Name, spec)
	if err != nil {
		return 0, err
	}
	_, held := splitZoo()
	var acc mapeAcc
	for _, m := range held {
		for n := 1; n <= maxServers; n++ {
			got, err := p.Predict(m, n)
			if err != nil {
				return 0, err
			}
			acc.add(got, truth[pair{m, n}])
		}
	}
	return acc.value(), nil
}
