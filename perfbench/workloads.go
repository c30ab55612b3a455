package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"predictddl"
	"predictddl/internal/gateway"
)

// connections is serve-gateway's closed-loop client count. One connection
// keeps the load from competing with the program for the machine's cores:
// on a shared 2-vCPU host, one busy-loop neighbour cut the warm zoo
// predict throughput of two connections by 45% and of one by 20%.
const connections = 1

// serve-gateway: two replicas behind a gateway, each serving cifar10,
// tiny-imagenet and imagenet. Replica A serves the trained predictors,
// replica B copies written with Save and read back with LoadPredictor. The
// ring sends cifar10 to A and the other two datasets to B.
func runServeGateway(cfg config) (*report, error) {
	return runServe(cfg, serveWorkload{
		name:      "serve-gateway",
		setup:     setupServeGateway,
		setupReps: 5,
		size:      reducedSize,
		datasets:  gatewayDatasets,
		// imagenet zoo answers fail parity (the known fault), so only the
		// other two datasets are scored.
		holdout: []string{"cifar10", "tiny-imagenet"},
		sources: gatewaySources,
	})
}

var gatewayDatasets = []string{"cifar10", "tiny-imagenet", "imagenet"}

func setupServeGateway() (*topology, error) {
	t := &topology{preds: map[string]*predictddl.Predictor{}, specs: map[string]string{}}
	var trained, copies []*predictddl.Predictor
	for _, ds := range gatewayDatasets {
		p, err := trainPredictor(ds, reducedSize)
		if err != nil {
			return nil, err
		}
		spec, err := specOf(p)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			return nil, fmt.Errorf("save %s: %w", ds, err)
		}
		q, err := predictddl.LoadPredictor(&buf)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", ds, err)
		}
		t.preds[ds], t.specs[ds] = p, spec.Name
		trained, copies = append(trained, p), append(copies, q)
	}
	var urls []string
	for _, ps := range [][]*predictddl.Predictor{trained, copies} {
		ctl := predictddl.NewController(ps...)
		h := &spanHandler{name: "core.handler", parent: "gateway.handler", h: ctl.Handler()}
		srv, err := startServer(h)
		if err != nil {
			t.close()
			return nil, err
		}
		t.servers = append(t.servers, srv)
		t.replicas = append(t.replicas, h)
		t.regs = append(t.regs, ctl.Metrics())
		urls = append(urls, srv.url)
	}
	seed, err := ringSeed(urls[0], urls[1])
	if err != nil {
		t.close()
		return nil, err
	}
	client := newGatewayClient()
	t.cleanup = append(t.cleanup, client.CloseIdleConnections)
	gw, err := gateway.New(gateway.Options{Replicas: urls, Seed: seed, Client: client})
	if err != nil {
		t.close()
		return nil, err
	}
	t.gateway = &spanHandler{name: "gateway.handler", h: gw.Handler()}
	front, err := startServer(t.gateway)
	if err != nil {
		t.close()
		return nil, err
	}
	t.front = front
	t.servers = append(t.servers, front)
	if err := warmZoo(front.url, t.specs, gatewayDatasets); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// ringSeed picks the first ring seed that places cifar10 on replica a and
// tiny-imagenet and imagenet on replica b. Replica URLs carry ephemeral
// ports, so the seed is searched per set-up rather than fixed.
func ringSeed(a, b string) (int64, error) {
	want := map[string]string{"cifar10": a, "tiny-imagenet": b, "imagenet": b}
	for seed := int64(1); seed <= 10000; seed++ {
		ring := gateway.NewRing(seed, 0, a, b)
		ok := true
		for ds, owner := range want {
			if got, _ := ring.Owner(ds); got != owner {
				ok = false
				break
			}
		}
		if ok {
			return seed, nil
		}
	}
	return 0, fmt.Errorf("no ring seed places the datasets on both replicas")
}

// gatewayRound is the fixed op order of one serve-gateway round: zoo
// predicts per dataset (c, t, i), custom graphs (C<dataset index>) and
// batches (b). Every round has the same make-up whatever the seed.
var gatewayRound = []string{"c", "t", "c", "t", "i", "C0", "b", "c", "t", "c", "t", "i", "C1", "b", "C2"}

func gatewaySources(seed int64, o oracle, t *topology) []roundSource {
	zoo := predictddl.Zoo()
	out := make([]roundSource, connections)
	for c := range out {
		rng := rand.New(rand.NewSource(mixSeed(seed, int64(c))))
		imagenet := c // seed-independent walk over imagenet questions
		out[c] = func(int) []httpOp {
			ops := make([]httpOp, 0, len(gatewayRound))
			for _, slot := range gatewayRound {
				switch slot {
				case "c":
					ops = append(ops, zooOp("predict-cifar10", o, randomZoo(rng, "cifar10"), t.specs["cifar10"], false))
				case "t":
					ops = append(ops, zooOp("predict-tiny-imagenet", o, randomZoo(rng, "tiny-imagenet"), t.specs["tiny-imagenet"], false))
				case "i":
					// The controller builds imagenet zoo graphs at the
					// CIFAR shape, so every answer differs from the
					// facade's: the known fault, counted as failed.
					k := zooKey{"imagenet", zoo[imagenet%len(zoo)], 1 + imagenet%maxServers}
					imagenet += connections
					ops = append(ops, zooOp("predict-imagenet", o, k, t.specs["imagenet"], true))
				case "b":
					keys := make([]zooKey, batchItems)
					for i := range keys {
						keys[i] = randomZoo(rng, gatewayDatasets[i%2])
					}
					ops = append(ops, batchOp(o, keys, t.specs))
				default:
					ds := gatewayDatasets[slot[1]-'0']
					ops = append(ops, customOp(rng.Int63(), ds, 1+rng.Intn(maxServers), t))
				}
			}
			return ops
		}
	}
	return out
}

// customOp submits a fresh random architecture as a graph spec. The
// answer must equal Predictor.PredictGraph on the same graph and cluster of
// the trained predictor; that check runs after the measured phase, on a
// graph regenerated from the same seed.
func customOp(graphSeed int64, ds string, n int, t *topology) httpOp {
	p := t.preds[ds]
	g := predictddl.RandomArchitecture(graphSeed, p.Dataset())
	return httpOp{
		kind:  "custom-graph",
		path:  pathPredict,
		body:  mustJSON(predictReq{Dataset: ds, Graph: g.Spec(), NumServers: n, ServerSpec: t.specs[ds]}),
		preds: 1,
		check: func(status int, body []byte) (func() error, error) {
			got, err := decodePredict(status, body)
			if err == nil {
				err = checkPositive(got)
			}
			if err != nil {
				return nil, err
			}
			return func() error {
				spec, err := specOf(p)
				if err != nil {
					return err
				}
				g := predictddl.RandomArchitecture(graphSeed, p.Dataset())
				want, err := p.PredictGraph(g, predictddl.Homogeneous(n, spec))
				if err != nil {
					return fmt.Errorf("custom graph %s on %d servers: facade: %w", ds, n, err)
				}
				if !sameBits(got, want) {
					return fmt.Errorf("custom graph %s (seed %d) on %d servers: HTTP answered %v, Predictor.PredictGraph %v", ds, graphSeed, n, got, want)
				}
				return nil
			}, nil
		},
	}
}

// checkPositive reports a prediction that is not a finite positive time.
func checkPositive(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return fmt.Errorf("prediction %v is not a finite positive time", v)
	}
	return nil
}
