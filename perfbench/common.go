package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"predictddl"
	"predictddl/internal/cluster"
	"predictddl/internal/dataset"
	"predictddl/internal/graph"
	"predictddl/internal/simulator"
)

// trainSeed seeds every predictor the benchmark trains and the simulator
// that scores it. It is fixed, apart from --seed, so that every run serves
// the same predictors and only the traffic changes with the seed.
const trainSeed = 1

// trainSize is the GHN training size of a predictor.
type trainSize struct{ graphs, epochs int }

var (
	// reducedSize keeps serve-gateway's set-up short.
	reducedSize = trainSize{graphs: 32, epochs: 2}
	// defaultSize is predictddl.Train's own default (256 graphs × 8 epochs).
	defaultSize = trainSize{}
)

// splitZoo divides the sorted zoo into the campaign models and the held-out
// models: every fifth model starting at the third (densenet161,
// efficientnet_b2, efficientnet_b7, resnet152, resnext50_32x4d, vgg16) is
// never trained on.
func splitZoo() (train, held []string) {
	for i, m := range predictddl.Zoo() {
		if i%5 == 2 {
			held = append(held, m)
		} else {
			train = append(train, m)
		}
	}
	return train, held
}

// trainPredictor runs the offline pipeline through the public facade.
func trainPredictor(ds string, size trainSize) (*predictddl.Predictor, error) {
	train, _ := splitZoo()
	p, err := predictddl.Train(predictddl.Options{
		Dataset:   ds,
		Models:    train,
		GHNGraphs: size.graphs,
		GHNEpochs: size.epochs,
		Seed:      trainSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("train %s: %w", ds, err)
	}
	return p, nil
}

// specOf returns the machine class a predictor was trained on.
func specOf(p *predictddl.Predictor) (cluster.ServerSpec, error) {
	pts := p.CampaignPoints()
	if len(pts) == 0 {
		return cluster.ServerSpec{}, errors.New("predictor has no campaign points")
	}
	return cluster.LookupSpec(pts[0].ServerSpecName)
}

// maxServers is the largest cluster size any workload asks about.
const maxServers = 20

// pair is a (zoo model, cluster size) question.
type pair struct {
	model string
	n     int
}

// groundTruth returns simulator.TrainingTime for every held-out model on
// 1–maxServers servers of spec, from the same simulator seed the training
// campaign used.
func groundTruth(ds string, spec cluster.ServerSpec) (map[pair]float64, error) {
	d, err := dataset.Lookup(ds)
	if err != nil {
		return nil, err
	}
	_, held := splitZoo()
	sim := simulator.New(trainSeed, simulator.Options{})
	out := make(map[pair]float64, len(held)*maxServers)
	for _, m := range held {
		g, err := graph.Build(m, d.GraphConfig())
		if err != nil {
			return nil, err
		}
		for n := 1; n <= maxServers; n++ {
			w := simulator.Workload{Graph: g, Dataset: d, BatchPerServer: simulator.DefaultBatchPerServer, Epochs: simulator.DefaultEpochs}
			secs, err := sim.TrainingTime(w, cluster.Homogeneous(n, spec))
			if err != nil {
				return nil, err
			}
			out[pair{m, n}] = secs
		}
	}
	return out, nil
}

// mapeAcc accumulates absolute percentage errors.
type mapeAcc struct {
	sum float64
	n   int
}

func (a *mapeAcc) add(pred, truth float64) {
	a.sum += math.Abs(pred-truth) / truth * 100
	a.n++
}

func (a *mapeAcc) value() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.sum / float64(a.n)
}

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	h := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[h]
	}
	return (xs[h-1] + xs[h]) / 2
}

// liveHeapMB forces collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle also frees what sync.Pools dropped
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// memCounters is a runtime allocation snapshot.
type memCounters struct {
	alloc, mallocs uint64
	gcs            uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.TotalAlloc, ms.Mallocs, ms.NumGC}
}

// server is an HTTP server on a loopback port.
type server struct {
	srv  *http.Server
	done chan error
	url  string
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for in-flight handlers and for the serve
// goroutine to return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// timedSetup performs set-up reps times and returns the last result with
// the median duration; earlier results are torn down at once.
func timedSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var env T
	var times []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(e)
			runtime.GC()
		}
		env = e
	}
	return env, median(times), nil
}

// mixSeed mixes a seed with stream indices into a well-spread int64.
func mixSeed(parts ...int64) int64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h ^= uint64(p>>(8*i)) & 0xff
			h *= 1099511628211
		}
	}
	return int64(h >> 1)
}
