package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"predictddl"
	"predictddl/internal/graph"
)

// Wire types of the controller API, declared here rather than taken from
// the program so that the benchmark checks the JSON contract itself.
type predictReq struct {
	Dataset    string      `json:"dataset"`
	Model      string      `json:"model,omitempty"`
	Graph      *graph.Spec `json:"graph,omitempty"`
	NumServers int         `json:"num_servers"`
	ServerSpec string      `json:"server_spec,omitempty"`
}

type predictResp struct {
	Dataset          string  `json:"dataset"`
	Model            string  `json:"model"`
	NumServers       int     `json:"num_servers"`
	PredictedSeconds float64 `json:"predicted_seconds"`
}

type batchReq struct {
	Requests []predictReq `json:"requests"`
}

type batchResp struct {
	Results []struct {
		predictResp
		Error string `json:"error"`
		Code  int    `json:"code"`
	} `json:"results"`
}

const (
	pathPredict = "/v1/predict"
	pathBatch   = "/v1/predict/batch"
	batchItems  = 16 // items per /v1/predict/batch request
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode request: %v", err)) // only plain structs are encoded
	}
	return b
}

// zooKey names a zoo question on one dataset.
type zooKey struct {
	ds    string
	model string
	n     int
}

// oracle holds predictddl's own answers, computed through the facade, for
// every zoo model on 1–maxServers servers of each served dataset.
type oracle map[zooKey]float64

func (o oracle) fill(ds string, p *predictddl.Predictor) error {
	for _, m := range predictddl.Zoo() {
		for n := 1; n <= maxServers; n++ {
			secs, err := p.Predict(m, n)
			if err != nil {
				return fmt.Errorf("facade %s/%s on %d servers: %w", ds, m, n, err)
			}
			o[zooKey{ds, m, n}] = secs
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func replyText(body []byte) string {
	const max = 200
	if len(body) > max {
		return string(body[:max]) + "..."
	}
	return string(body)
}

// zooOp asks one zoo question and checks the answer against the facade.
// With fault set, a wrong answer is the known fault of the kind.
func zooOp(kind string, o oracle, k zooKey, spec string, fault bool) httpOp {
	return httpOp{
		kind:  kind,
		path:  pathPredict,
		body:  mustJSON(predictReq{Dataset: k.ds, Model: k.model, NumServers: k.n, ServerSpec: spec}),
		preds: 1,
		check: func(status int, body []byte) (func() error, error) {
			got, err := decodePredict(status, body)
			if err != nil {
				return nil, err
			}
			if want := o[k]; !sameBits(got, want) {
				err := fmt.Errorf("%s/%s on %d servers: HTTP answered %v, Predictor.Predict %v", k.ds, k.model, k.n, got, want)
				if fault {
					return nil, knownFault{err}
				}
				return nil, err
			}
			return nil, nil
		},
	}
}

func decodePredict(status int, body []byte) (float64, error) {
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", status, replyText(body))
	}
	var resp predictResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode reply: %w", err)
	}
	return resp.PredictedSeconds, nil
}

// batchOp asks zoo questions in one batch; every item must carry the
// facade's answer, which the single requests are held to as well.
func batchOp(o oracle, keys []zooKey, specs map[string]string) httpOp {
	req := batchReq{Requests: make([]predictReq, len(keys))}
	for i, k := range keys {
		req.Requests[i] = predictReq{Dataset: k.ds, Model: k.model, NumServers: k.n, ServerSpec: specs[k.ds]}
	}
	return httpOp{
		kind:  "batch",
		path:  pathBatch,
		body:  mustJSON(req),
		preds: len(keys),
		check: func(status int, body []byte) (func() error, error) {
			if status != http.StatusOK {
				return nil, fmt.Errorf("status %d: %s", status, replyText(body))
			}
			var resp batchResp
			if err := json.Unmarshal(body, &resp); err != nil {
				return nil, fmt.Errorf("decode batch reply: %w", err)
			}
			if len(resp.Results) != len(keys) {
				return nil, fmt.Errorf("batch of %d answered %d items", len(keys), len(resp.Results))
			}
			for i, k := range keys {
				it := resp.Results[i]
				if it.Error != "" || it.Code != 0 {
					return nil, fmt.Errorf("batch item %d (%s/%s): code %d: %s", i, k.ds, k.model, it.Code, it.Error)
				}
				if want := o[k]; !sameBits(it.PredictedSeconds, want) {
					return nil, fmt.Errorf("batch item %d %s/%s on %d servers: %v, Predictor.Predict %v", i, k.ds, k.model, k.n, it.PredictedSeconds, want)
				}
			}
			return nil, nil
		},
	}
}

// randomZoo draws a zoo question on ds.
func randomZoo(rng *rand.Rand, ds string) zooKey {
	zoo := predictddl.Zoo()
	return zooKey{ds, zoo[rng.Intn(len(zoo))], 1 + rng.Intn(maxServers)}
}

// warmZoo sends every zoo model of each dataset once, so the measured
// phase starts with warm embedding caches.
func warmZoo(base string, specs map[string]string, datasets []string) error {
	cl := newClient(base)
	defer cl.close()
	for _, ds := range datasets {
		for _, m := range predictddl.Zoo() {
			body := mustJSON(predictReq{Dataset: ds, Model: m, NumServers: 1, ServerSpec: specs[ds]})
			status, reply, err := cl.post(pathPredict, body, "")
			if err != nil {
				return fmt.Errorf("warm-up %s/%s: %w", ds, m, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("warm-up %s/%s: status %d: %s", ds, m, status, replyText(reply))
			}
		}
	}
	return nil
}

// scoreHoldout asks the serving path about every held-out model on
// 1–maxServers servers of each dataset, checks each answer against the
// facade and returns the MAPE against the simulator.
func scoreHoldout(base string, o oracle, specs map[string]string, datasets []string, preds map[string]*predictddl.Predictor, rep *report) (float64, error) {
	cl := newClient(base)
	defer cl.close()
	_, held := splitZoo()
	var acc mapeAcc
	for _, ds := range datasets {
		spec, err := specOf(preds[ds])
		if err != nil {
			return 0, err
		}
		truth, err := groundTruth(ds, spec)
		if err != nil {
			return 0, err
		}
		for _, m := range held {
			for n := 1; n <= maxServers; n++ {
				k := zooKey{ds, m, n}
				status, reply, err := cl.post(pathPredict, mustJSON(predictReq{Dataset: ds, Model: m, NumServers: n, ServerSpec: specs[ds]}), "")
				if err != nil {
					return 0, fmt.Errorf("held-out %s/%s: %w", ds, m, err)
				}
				got, err := decodePredict(status, reply)
				if err != nil {
					rep.problem("held-out %s/%s on %d servers: %v", ds, m, n, err)
					continue
				}
				if !sameBits(got, o[k]) {
					rep.problem("held-out %s/%s on %d servers: HTTP answered %v, Predictor.Predict %v", ds, m, n, got, o[k])
					continue
				}
				acc.add(got, truth[pair{m, n}])
			}
		}
	}
	return acc.value(), nil
}
