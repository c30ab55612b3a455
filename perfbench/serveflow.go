package main

import (
	"fmt"
	"net/http"
	"time"

	"predictddl"
	"predictddl/internal/obs"
)

// topology is a running serving set-up: the trained predictors, the
// servers in front of them and the span hooks on each handler.
type topology struct {
	// preds are the trained predictors, the oracle of every answer.
	preds map[string]*predictddl.Predictor
	// specs is the machine class each dataset's predictor was trained on;
	// every request names it.
	specs    map[string]string
	front    *server
	servers  []*server
	replicas []*spanHandler // core.handler hooks
	gateway  *spanHandler   // gateway.handler hook
	regs     []*obs.Registry
	cleanup  []func()
}

func (t *topology) close() {
	for i := len(t.servers) - 1; i >= 0; i-- {
		if err := t.servers[i].close(); err != nil {
			fmt.Printf("perfbench: server close: %v\n", err)
		}
	}
	for _, f := range t.cleanup {
		f()
	}
}

func (t *topology) setTracer(tr *tracer) {
	for _, h := range t.replicas {
		h.tr.Store(tr)
	}
	t.gateway.tr.Store(tr)
}

// counters sums the engines' cache and GHN embed counters over every
// controller of the topology.
func (t *topology) counters() engineCounters {
	var c engineCounters
	for _, r := range t.regs {
		c = c.plus(readEngineCounters(r))
	}
	return c
}

// served returns the prediction requests each replica has answered with
// 200, from its controller's own counters.
func (t *topology) served() []uint64 {
	out := make([]uint64, len(t.regs))
	for i, r := range t.regs {
		out[i] = r.Counter("http.requests.predict.200").Value() + r.Counter("http.requests.batch.200").Value()
	}
	return out
}

// checkShards requires every replica to have carried traffic since before.
func (t *topology) checkShards(before []uint64, rep *report) {
	after := t.served()
	for i := range after {
		n := after[i] - before[i]
		if len(after) > 1 {
			rep.note("replica %d answered %d requests", i, n)
		}
		if n == 0 {
			rep.problem("replica %d carried no traffic", i)
		}
	}
}

// engineCounters are the program's own embed counters.
type engineCounters struct {
	hits, misses, embeds uint64
}

func readEngineCounters(r *obs.Registry) engineCounters {
	return engineCounters{
		hits:   r.Counter("embed.cache.hits").Value(),
		misses: r.Counter("embed.cache.misses").Value(),
		embeds: r.Histogram("ghn.embed.seconds", obs.LatencyBuckets()).Count(),
	}
}

func (c engineCounters) plus(o engineCounters) engineCounters {
	return engineCounters{c.hits + o.hits, c.misses + o.misses, c.embeds + o.embeds}
}

func (c engineCounters) minus(o engineCounters) engineCounters {
	return engineCounters{c.hits - o.hits, c.misses - o.misses, c.embeds - o.embeds}
}

func (c engineCounters) hitRatio() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// serveWorkload describes one HTTP workload.
type serveWorkload struct {
	name  string
	setup func() (*topology, error)
	// setupReps is how many times an untraced run performs the set-up;
	// setup_s is the median.
	setupReps int
	size      trainSize
	datasets  []string
	// holdout lists the datasets scored for holdout_mape_pct.
	holdout []string
	sources func(seed int64, o oracle, t *topology) []roundSource
}

// keepPerConn bounds the ops per connection whose request is kept for the
// traced replay.
const keepPerConn = 1500

func runServe(cfg config, w serveWorkload) (*report, error) {
	rep := newReport()
	reps := w.setupReps
	if cfg.traced {
		reps = 1
	}
	topo, setupS, err := timedSetup(reps, w.setup, (*topology).close)
	if err != nil {
		return nil, err
	}
	defer topo.close()
	o := oracle{}
	for _, ds := range w.datasets {
		if err := o.fill(ds, topo.preds[ds]); err != nil {
			return nil, err
		}
	}
	if !cfg.traced {
		r0 := topo.served()
		ph := closedLoop(topo.front.url, w.sources(cfg.seed, o, topo), cfg.measure, nil, 0)
		heap := liveHeapMB()
		topo.checkShards(r0, rep)
		ph.settle(rep)
		mape, err := scoreHoldout(topo.front.url, o, topo.specs, w.holdout, topo.preds, rep)
		if err != nil {
			return nil, err
		}
		rep.add("setup_s", setupS, "s")
		ph.endToEnd(rep)
		rep.add("holdout_mape_pct", mape, "%")
		rep.add("live_heap_mb", heap, "MB")
		return rep, nil
	}

	tr := newTracer()
	var setupAcc setupLayers
	pipes := map[string]*pipeline{}
	for _, ds := range w.datasets {
		if pipes[ds], err = replayPipeline(tr, ds, w.size, topo.preds[ds], &setupAcc, rep); err != nil {
			return nil, err
		}
	}
	half := cfg.measure / 2
	m0 := readMem()
	r0 := topo.served()
	plain := closedLoop(topo.front.url, w.sources(cfg.seed, o, topo), half, nil, 0)
	m1 := readMem()
	topo.setTracer(tr)
	c0 := topo.counters()
	// The traced half draws from a derived seed, so its custom graphs are
	// as cold as the first half's.
	traced := closedLoop(topo.front.url, w.sources(mixSeed(cfg.seed, -1), o, topo), half, tr, keepPerConn)
	engine := topo.counters().minus(c0)
	topo.setTracer(nil)
	topo.checkShards(r0, rep)
	plain.settle(rep)
	traced.settle(rep)

	rp := newReplayer(tr, pipes)
	handlers := tr.byOp("core.handler")
	clientSpans := tr.byOp("client.op")
	top := tr.byOp("gateway.handler")
	// Handler, overhead and unattributed means are over single predicts;
	// batches show in core.batch_parallel_efficiency instead.
	var unattributed, overhead, handler time.Duration
	var nUnattr, nSingle int
	for _, r := range traced.recs {
		c, t, h := clientSpans[r.id], top[r.id], handlers[r.id]
		single := r.kind != "batch" && len(c) == 1 && len(t) == 1 && len(h) == 1
		if single {
			overhead += c[0].dur() - t[0].dur()
			handler += h[0].dur()
			nSingle++
		}
		switch {
		case r.op == nil:
		case r.op.path == pathBatch:
			rp.batch(r.id, r.op.body)
		case single:
			unattributed += h[0].dur() - rp.predict(r.id, r.op.body)
			nUnattr++
		}
	}
	if rp.err != nil {
		return nil, fmt.Errorf("replay: %w", rp.err)
	}

	rep.add("graph.build_us", rp.steps.meanUS("graph.build"), "us")
	rep.add("graph.fingerprint_us", rp.steps.meanUS("graph.fingerprint"), "us")
	rep.add("graph.fromspec_us", rp.steps.meanUS("graph.fromspec"), "us")
	rep.add("core.handler_us", meanUS(handler, nSingle), "us")
	rep.add("core.http_overhead_us", meanUS(overhead, nSingle), "us")
	rep.add("core.unattributed_us", meanUS(unattributed, nUnattr), "us")
	rep.add("core.embed_cache_hit_ratio", engine.hitRatio(), "ratio")
	// A gateway batch is split over two replicas, so batch parallelism is
	// measured on nas-sweep only.
	rep.add("core.batch_parallel_efficiency", 0, "ratio")
	rep.add("ghn.embed_us", rp.steps.meanUS("ghn.embed"), "us")
	rep.add("ghn.embeds_per_op", float64(engine.embeds)/float64(traced.ops), "count")
	addSetupLayers(rep, setupAcc)
	rep.add("regress.predict_us", rp.steps.meanUS("regress.predict"), "us")
	addGatewayLayers(rep, tr, traced)
	addRuntimeLayers(rep, m0, m1, plain.ops)
	plainOps, _ := plain.windowRates()
	tracedOps, _ := traced.windowRates()
	rep.add("trace.overhead_pct", (plainOps-tracedOps)/plainOps*100, "%")
	if err := tr.write(spanPath(w.name, cfg.seed)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}

func meanUS(sum time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum.Seconds() * 1e6 / float64(n)
}

// addGatewayLayers reports the gateway's self time and forwarding counts.
func addGatewayLayers(rep *report, tr *tracer, ph *phase) {
	gw := tr.byOp("gateway.handler")
	replica := tr.byOp("core.handler")
	var self time.Duration
	var forwards, batches, batchGroups int
	batchOps := map[int64]bool{}
	for _, r := range ph.recs {
		if r.kind == "batch" {
			batchOps[r.id] = true
		}
	}
	for op, ss := range gw {
		children := replica[op]
		self += selfTime(ss[0], children)
		forwards += len(children)
		if batchOps[op] {
			batches++
			batchGroups += len(children)
		}
	}
	perOp, perBatch := 0.0, 0.0
	if len(gw) > 0 {
		perOp = float64(forwards) / float64(len(gw))
	}
	if batches > 0 {
		perBatch = float64(batchGroups) / float64(batches)
	}
	rep.add("gateway.self_us", meanUS(self, len(gw)), "us")
	rep.add("gateway.forwards_per_op", perOp, "count")
	rep.add("gateway.fanout_groups_per_batch", perBatch, "count")
}

// addRuntimeLayers reports allocation per op and GC cycles over the
// untraced half of a traced run.
func addRuntimeLayers(rep *report, m0, m1 memCounters, ops int) {
	rep.add("runtime.alloc_kb_per_op", float64(m1.alloc-m0.alloc)/1024/float64(ops), "KB")
	rep.add("runtime.mallocs_per_op", float64(m1.mallocs-m0.mallocs)/float64(ops), "count")
	rep.add("runtime.gc_cycles", float64(m1.gcs-m0.gcs), "count")
}

// spanPath is where a traced run writes its spans, inside the checkout.
func spanPath(workload string, seed int64) string {
	return fmt.Sprintf(".bench_build/spans-%s-seed%d.jsonl", workload, seed)
}

// newGatewayClient returns the HTTP client a gateway forwards with: enough
// idle connections per replica for the client connection and a batch
// fan-out, so forwarding does not reconnect.
func newGatewayClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}, Timeout: 60 * time.Second}
}
