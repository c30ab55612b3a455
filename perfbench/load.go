package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The load generator is the benchmark's own: a closed loop in which each
// connection sends its next request only after the previous reply arrived.
// Traffic comes in rounds of a fixed op mix, and a run always finishes the
// round it is in, so every run attempts whole rounds.

// httpOp is one request of a round.
type httpOp struct {
	kind string
	path string
	body []byte
	// preds is the number of (architecture, cluster) answers the op asks
	// for.
	preds int
	// check inspects the reply. A non-nil deferred function is run after
	// the measured phase (for checks too costly to run between requests).
	// An error wrapped in knownFault is a known program fault: the op
	// counts as failed but the run stays correct.
	check func(status int, body []byte) (deferred func() error, err error)
}

// knownFault wraps a check failure caused by a known program fault.
type knownFault struct{ error }

// opRec is one finished op of a traced phase, kept for the replay and the
// spans. Untraced phases keep no per-op records, only the fixed-size
// tallies of phaseStats, so the benchmark's own heap does not grow with
// the number of ops.
type opRec struct {
	kind string
	id   int64
	// op is kept for the first ops of each connection only.
	op *httpOp
}

// phaseStats are the fixed-size tallies of a measured phase.
type phaseStats struct {
	lat    latHist
	byKind map[string]*latHist
	kinds  []string // first-seen order
	counts map[string]*opCount
	// winOps and winPreds count ops and correct answers by the window (of
	// about a second) in which they ended.
	window           time.Duration
	winOps, winPreds []float64
}

func newPhaseStats(windows int, window time.Duration) *phaseStats {
	return &phaseStats{
		window:   window,
		byKind:   map[string]*latHist{},
		counts:   map[string]*opCount{},
		winOps:   make([]float64, windows),
		winPreds: make([]float64, windows),
	}
}

func (s *phaseStats) record(kind string, end, dur time.Duration, preds int, failed bool) {
	h, ok := s.byKind[kind]
	if !ok {
		h = &latHist{}
		s.byKind[kind] = h
		s.counts[kind] = &opCount{}
		s.kinds = append(s.kinds, kind)
	}
	h.add(dur)
	s.lat.add(dur)
	c := s.counts[kind]
	c.attempted++
	if failed {
		c.failed++
	}
	if i := int(end / s.window); i < len(s.winOps) {
		s.winOps[i]++
		if !failed {
			s.winPreds[i] += float64(preds)
		}
	}
}

func (s *phaseStats) merge(o *phaseStats) {
	s.lat.merge(&o.lat)
	for _, k := range o.kinds {
		if _, ok := s.byKind[k]; !ok {
			s.byKind[k] = &latHist{}
			s.counts[k] = &opCount{}
			s.kinds = append(s.kinds, k)
		}
		s.byKind[k].merge(o.byKind[k])
		s.counts[k].attempted += o.counts[k].attempted
		s.counts[k].failed += o.counts[k].failed
	}
	for i := range s.winOps {
		s.winOps[i] += o.winOps[i]
		s.winPreds[i] += o.winPreds[i]
	}
}

// phase is the outcome of one measured phase.
type phase struct {
	stats    *phaseStats
	recs     []opRec // traced phases only
	ops      int
	deferred []deferredCheck
	fault    string // first known-fault failure, for the summary
}

type deferredCheck struct {
	kind  string
	check func() error
}

// client is one keep-alive HTTP connection.
type client struct {
	c    *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) post(path string, body []byte, reqID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (c *client) close() { c.c.CloseIdleConnections() }

// opID encodes a connection and sequence number as the request ID, so
// spans recorded on the server side join the client's op.
func opID(conn, seq int) int64 { return int64(conn)<<32 | int64(seq) }

func opHeader(id int64) string { return "op-" + strconv.FormatInt(id, 10) }

func parseOpHeader(h string) (int64, bool) {
	id, err := strconv.ParseInt(strings.TrimPrefix(h, "op-"), 10, 64)
	return id, err == nil && strings.HasPrefix(h, "op-")
}

// roundSource yields the ops of a connection's successive rounds.
type roundSource func(round int) []httpOp

// closedLoop drives one source per connection against base until measure
// has passed, finishing the current round of each connection. Replies are
// checked between requests, outside the timed span. With a tracer, the
// client span of every op is recorded and up to keep ops per connection
// retain their request for the replay.
func closedLoop(base string, sources []roundSource, measure time.Duration, tr *tracer, keep int) *phase {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measuredProcs))
	windows := max(int(measure/time.Second), 1)
	window := measure / time.Duration(windows)
	outs := make([]phase, len(sources))
	start := time.Now()
	deadline := start.Add(measure)
	var wg sync.WaitGroup
	for ci := range sources {
		outs[ci].stats = newPhaseStats(windows, window)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			out := &outs[ci]
			for round := 0; time.Now().Before(deadline); round++ {
				ops := sources[ci](round)
				for i := range ops {
					op := &ops[i]
					id := opID(ci, out.ops)
					out.ops++
					t0 := time.Now()
					status, reply, err := cl.post(op.path, op.body, opHeader(id))
					t1 := time.Now()
					if tr != nil {
						tr.record("client.op", "", id, t0, t1)
						rec := opRec{kind: op.kind, id: id}
						if len(out.recs) < keep {
							rec.op = op
						}
						out.recs = append(out.recs, rec)
					}
					var kf knownFault
					failed := false
					if err != nil {
						out.deferred = append(out.deferred, deferredCheck{op.kind, constErr(fmt.Errorf("%s: %w", op.kind, err))})
					} else if later, cerr := op.check(status, reply); errors.As(cerr, &kf) {
						failed = true
						if out.fault == "" {
							out.fault = cerr.Error()
						}
					} else if cerr != nil {
						out.deferred = append(out.deferred, deferredCheck{op.kind, constErr(fmt.Errorf("%s: %w", op.kind, cerr))})
					} else if later != nil {
						out.deferred = append(out.deferred, deferredCheck{op.kind, later})
					}
					out.stats.record(op.kind, t1.Sub(start), t1.Sub(t0), op.preds, failed)
				}
			}
		}(ci)
	}
	wg.Wait()
	ph := &phase{stats: newPhaseStats(windows, window)}
	for i := range outs {
		o := &outs[i]
		if ph.fault == "" {
			ph.fault = o.fault
		}
		ph.stats.merge(o.stats)
		ph.recs = append(ph.recs, o.recs...)
		ph.deferred = append(ph.deferred, o.deferred...)
		ph.ops += o.ops
	}
	return ph
}

func constErr(err error) func() error { return func() error { return err } }

// settle runs the phase's deferred checks and adds its ops to the report.
// An op that fails one counts as failed, and the failure is a problem that
// makes the run incorrect.
func (ph *phase) settle(rep *report) {
	if ph.fault != "" {
		rep.note("known fault, counted as failed: %s", ph.fault)
	}
	for _, d := range ph.deferred {
		if err := d.check(); err != nil {
			ph.stats.counts[d.kind].failed++
			rep.problem("%v", err)
		}
	}
	for _, k := range ph.stats.kinds {
		c := ph.stats.counts[k]
		rep.count(k, c.attempted, c.failed)
	}
}

// endToEnd adds the throughput and latency metrics of a phase. Throughput
// is the median over the one-second windows of the measured phase, which
// keeps a short stall on a shared machine from moving the figure; latency
// percentiles are over every op.
func (ph *phase) endToEnd(rep *report) {
	ops, preds := ph.windowRates()
	rep.add("ops_per_s", ops, "1/s")
	rep.add("op_p50_ms", ph.stats.lat.quantile(0.50), "ms")
	rep.add("op_p99_ms", ph.stats.lat.quantile(0.99), "ms")
	rep.add("predictions_per_s", preds, "1/s")
	rep.note("latency samples: %d ops (op_p99_ms is a tail only with >= 1000)", ph.stats.lat.n)
	rep.note("ops per window: %v", ph.stats.winOps)
	for _, k := range ph.stats.kinds {
		h := ph.stats.byKind[k]
		rep.note("latency %-22s n=%-7d p50=%.3f ms p99=%.3f ms", k, h.n, h.quantile(0.5), h.quantile(0.99))
	}
}

// windowRates returns the median per-window op and correct-answer rates.
func (ph *phase) windowRates() (ops, preds float64) {
	secs := ph.stats.window.Seconds()
	return median(append([]float64(nil), ph.stats.winOps...)) / secs,
		median(append([]float64(nil), ph.stats.winPreds...)) / secs
}
