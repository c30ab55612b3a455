package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"predictddl"
	"predictddl/internal/cluster"
	"predictddl/internal/core"
	"predictddl/internal/dataset"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/regress"
	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

// The traced run replays, from the benchmark's own code, the layer calls
// the program makes: once for the offline pipeline behind predictddl.Train,
// and per kept op for the steps of a request. Each call gets a span; the
// replays run after the measured phases, so they do not slow them.

// pipeline is one dataset's offline pipeline rebuilt layer by layer.
type pipeline struct {
	d      dataset.Dataset
	spec   cluster.ServerSpec
	ghn    *ghn.GHN
	model  regress.Regressor
	facade *predictddl.Predictor
}

// setupLayers sums the offline-pipeline step times of a workload.
type setupLayers struct {
	campaign, train, design, fit time.Duration
	trainSteps                   int
}

// replayPipeline repeats predictddl.Train's steps for ds: GHN training,
// the simulated campaign, the design-matrix embed and the regressor fit.
// It notes, without failing the run, when the rebuilt predictor's answers
// differ from the facade's: the per-layer times then describe a different
// pipeline.
func replayPipeline(tr *tracer, ds string, size trainSize, facade *predictddl.Predictor, acc *setupLayers, rep *report) (*pipeline, error) {
	d, err := dataset.Lookup(ds)
	if err != nil {
		return nil, err
	}
	spec, err := specOf(facade)
	if err != nil {
		return nil, err
	}
	train, _ := splitZoo()
	pl := &pipeline{d: d, spec: spec, facade: facade}

	var report ghn.TrainReport
	acc.train += tr.time("ghn.train", "setup", -1, func() {
		pl.ghn, report, err = ghn.Train(ghn.Config{}, ghn.TrainConfig{
			Graphs: size.graphs, Epochs: size.epochs, Seed: trainSeed, GraphConfig: d.GraphConfig(),
		})
	})
	if err != nil {
		return nil, fmt.Errorf("replay ghn.Train: %w", err)
	}
	acc.trainSteps += report.Graphs * report.Epochs

	var points []simulator.DataPoint
	acc.campaign += tr.time("simulator.campaign", "setup", -1, func() {
		points, err = simulator.New(trainSeed, simulator.Options{}).RunCampaign(simulator.CampaignSpec{
			Models: train, Dataset: d, ServerSpec: spec,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("replay campaign: %w", err)
	}

	var x *tensor.Matrix
	var y []float64
	var embs map[string][]float64
	acc.design += tr.time("core.design_matrix", "setup", -1, func() {
		x, y, embs, err = core.DesignMatrixWithEmbeddings(pl.ghn, points, d.GraphConfig())
	})
	if err != nil {
		return nil, fmt.Errorf("replay design matrix: %w", err)
	}

	pl.model = regress.NewLogTarget(regress.NewLinearRegression())
	acc.fit += tr.time("regress.fit", "setup", -1, func() { err = pl.model.Fit(x, y) })
	if err != nil {
		return nil, fmt.Errorf("replay fit: %w", err)
	}

	engine := core.NewInferenceEngine(ds, pl.ghn, pl.model)
	engine.SetReference(embs)
	for _, m := range predictddl.Zoo()[:4] {
		g, err := graph.Build(m, d.GraphConfig())
		if err != nil {
			return nil, err
		}
		for _, n := range []int{1, 8} {
			got, err := engine.Predict(g, cluster.Homogeneous(n, spec))
			if err != nil {
				return nil, err
			}
			want, err := facade.Predict(m, n)
			if err != nil {
				return nil, err
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				rep.note("replay: the layer-by-layer pipeline for %s answers %v for %s on %d servers, predictddl.Train %v; per-layer set-up times describe a different pipeline", ds, got, m, n, want)
				return pl, nil
			}
		}
	}
	return pl, nil
}

// addSetupLayers reports the offline-pipeline metrics.
func addSetupLayers(rep *report, acc setupLayers) {
	rep.add("simulator.campaign_s", acc.campaign.Seconds(), "s")
	rep.add("ghn.train_s", acc.train.Seconds(), "s")
	stepMS := 0.0
	if acc.trainSteps > 0 {
		stepMS = acc.train.Seconds() * 1e3 / float64(acc.trainSteps)
	}
	rep.add("ghn.train_step_ms", stepMS, "ms")
	rep.add("core.design_matrix_s", acc.design.Seconds(), "s")
	rep.add("regress.fit_ms", acc.fit.Seconds()*1e3, "ms")
}

// replayer re-runs the steps of kept ops against the rebuilt pipelines.
type replayer struct {
	tr    *tracer
	pipes map[string]*pipeline
	steps stepStats
	// itemSum is the Σ of replayed item times per batch op.
	itemSum map[int64]time.Duration
	err     error
}

func newReplayer(tr *tracer, pipes map[string]*pipeline) *replayer {
	return &replayer{tr: tr, pipes: pipes, steps: stepStats{}, itemSum: map[int64]time.Duration{}}
}

func (r *replayer) step(name string, op int64, f func()) time.Duration {
	d := r.tr.time(name, "replay", op, f)
	r.steps.add(name, d)
	return d
}

func (r *replayer) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// predict replays one /v1/predict request: decode, graph build (zoo) or
// FromSpec (custom graph), fingerprint, embedding, regression and encode.
// It returns the Σ of the steps the handler runs in sequence.
func (r *replayer) predict(op int64, body []byte) time.Duration {
	var req core.PredictRequest
	var err error
	total := r.step("core.decode", op, func() { err = json.Unmarshal(body, &req) })
	r.fail(err)
	item, ans := r.item(op, req)
	total += item
	total += r.step("core.encode", op, func() {
		_, err = json.Marshal(core.PredictResponse{Dataset: req.Dataset, Model: req.Model, NumServers: req.NumServers, PredictedSeconds: ans})
	})
	r.fail(err)
	return total
}

// item replays the work of one prediction and returns its time and answer.
func (r *replayer) item(op int64, req core.PredictRequest) (time.Duration, float64) {
	pl, ok := r.pipes[req.Dataset]
	if !ok {
		r.fail(fmt.Errorf("replay: no pipeline for %q", req.Dataset))
		return 0, 0
	}
	var g *graph.Graph
	var err error
	var emb []float64
	var total time.Duration
	if req.Graph != nil {
		total += r.step("graph.fromspec", op, func() { g, err = graph.FromSpec(req.Graph) })
		r.fail(err)
		if err != nil {
			return total, 0
		}
		var key string
		total += r.step("graph.fingerprint", op, func() { key = g.Fingerprint() })
		total += r.step("ghn.embed", op, func() { emb, err = pl.ghn.EmbedKeyed(g, key, ghn.Float64) })
	} else {
		total += r.step("graph.build", op, func() { g, err = graph.Build(req.Model, pl.d.GraphConfig()) })
		r.fail(err)
		if err != nil {
			return total, 0
		}
		r.step("graph.fingerprint", op, func() { _ = g.Fingerprint() }) // inside core.embedding below
		total += r.step("core.embedding", op, func() { emb, err = pl.facade.Engine().Embedding(g) })
	}
	r.fail(err)
	if err != nil {
		return total, 0
	}
	var ans float64
	feats := tensor.Concat(emb, cluster.Homogeneous(req.NumServers, pl.spec).Features())
	total += r.step("regress.predict", op, func() { ans, err = pl.model.Predict(feats) })
	r.fail(err)
	return total, ans
}

// batch replays one /v1/predict/batch request and records the Σ of its
// item times.
func (r *replayer) batch(op int64, body []byte) {
	var req core.BatchRequest
	var err error
	r.step("core.decode", op, func() { err = json.Unmarshal(body, &req) })
	r.fail(err)
	var items time.Duration
	for _, it := range req.Requests {
		d, _ := r.item(op, it)
		items += d
	}
	r.itemSum[op] = items
}

// parallelEfficiency is Σ item time ÷ (batch span × measuredProcs) over
// the replayed batch ops, given each op's batch span.
func (r *replayer) parallelEfficiency(spans map[int64][]span) float64 {
	var items, avail float64
	for op, sum := range r.itemSum {
		ss := spans[op]
		if len(ss) == 0 {
			continue
		}
		items += sum.Seconds()
		avail += ss[0].dur().Seconds() * measuredProcs
	}
	if avail == 0 {
		return 0
	}
	return items / avail
}
