package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one op share its id; setup spans use op -1.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) record(name, parent string, op int64, start, end time.Time) {
	s := span{Name: name, Parent: parent, Op: op, Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// time runs f inside a span and returns its duration.
func (t *tracer) time(name, parent string, op int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(name, parent, op, start, end)
	return end.Sub(start)
}

// byOp indexes the spans named name by op id.
func (t *tracer) byOp(name string) map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] = append(out[s.Op], s)
		}
	}
	return out
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", n, path)
	return nil
}

// selfTime is the part of parent's interval that none of children covers.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), int64(-1<<62)
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - time.Duration(covered)
}

// spanHandler records a span around h for every request whose
// X-Request-ID names an op, while a tracer is attached.
type spanHandler struct {
	name, parent string
	h            http.Handler
	tr           atomic.Pointer[tracer]
}

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	if tr == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	s.h.ServeHTTP(w, r)
	end := time.Now()
	if id, ok := parseOpHeader(r.Header.Get("X-Request-ID")); ok {
		tr.record(s.name, s.parent, id, start, end)
	}
}

// stepStats accumulates per-step replay times.
type stepStats map[string]*stepStat

type stepStat struct {
	sum time.Duration
	n   int
}

func (s stepStats) add(name string, d time.Duration) {
	st, ok := s[name]
	if !ok {
		st = &stepStat{}
		s[name] = st
	}
	st.sum += d
	st.n++
}

// meanUS is the mean of a step in microseconds, 0 when it never ran.
func (s stepStats) meanUS(name string) float64 {
	st, ok := s[name]
	if !ok || st.n == 0 {
		return 0
	}
	return st.sum.Seconds() * 1e6 / float64(st.n)
}
