// Command perfbench is PredictDDL's end-to-end benchmark. One run trains the
// predictors a workload serves, drives the workload for a fixed time,
// checks every answer the program gives, and prints one JSON result line:
//
//	perfbench --workload serve-gateway --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run (see README.md). Build and run
// it through run.sh, which keeps the Go build cache inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// measuredProcs is GOMAXPROCS during every measured phase; set-up and
// checks run on every core. One core, because on a shared 2-vCPU host the
// machine's speed drifts, and two cores magnify it: in four pairs of
// interleaved nas-sweep runs, two cores spread 0.19 in throughput and 0.37
// in p99 latency (quartile distance over median), one core 0.08 and 0.06.
// The program's batch worker pools size themselves by GOMAXPROCS, so they
// run one worker.
const measuredProcs = 1

// config is one run's command line.
type config struct {
	seed    int64
	measure time.Duration
	traced  bool
}

// workloads maps a --workload name to its driver.
var workloads = map[string]func(config) (*report, error){
	"serve-gateway": runServeGateway,
	"nas-sweep":     runNASSweep,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: serve-gateway or nas-sweep")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s> --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d num_cpu=%d gomaxprocs=%d measured_gomaxprocs=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), measuredProcs, runtime.Version())
	rep, err := drive(config{seed: *seed, measure: time.Duration(*seconds) * time.Second, traced: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.print(*name)
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// opCount tallies one op kind.
type opCount struct {
	attempted, failed int
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one run: op accounting, check failures and
// metrics in print order.
type report struct {
	kindOrder []string
	kinds     map[string]*opCount
	problems  []string
	metrics   []metric
	notes     []string
}

func newReport() *report {
	return &report{kinds: make(map[string]*opCount)}
}

// count adds finished ops of a kind.
func (r *report) count(kind string, attempted, failed int) {
	c, ok := r.kinds[kind]
	if !ok {
		c = &opCount{}
		r.kinds[kind] = c
		r.kindOrder = append(r.kindOrder, kind)
	}
	c.attempted += attempted
	c.failed += failed
}

// problem records a failed check; any problem makes the run incorrect.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// note adds a line to the summary once.
func (r *report) note(format string, args ...any) {
	n := fmt.Sprintf(format, args...)
	for _, old := range r.notes {
		if old == n {
			return
		}
	}
	r.notes = append(r.notes, n)
}

// print writes the human summary and, last, the JSON result line.
func (r *report) print(workload string) {
	attempted, failed := 0, 0
	for _, k := range r.kindOrder {
		c := r.kinds[k]
		attempted += c.attempted
		failed += c.failed
		fmt.Printf("ops %-16s kind=%-22s attempted=%-7d failed=%d\n", workload, k, c.attempted, c.failed)
	}
	fmt.Printf("ops %-16s kind=%-22s attempted=%-7d failed=%d\n", workload, "total", attempted, failed)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	const maxShown = 10
	for i, p := range r.problems {
		if i == maxShown {
			fmt.Printf("check: ... %d more\n", len(r.problems)-maxShown)
			break
		}
		fmt.Println("check failed:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, "metric "+m.name+" is not finite")
			v = 0
		}
		fmt.Printf("metric %-32s %14.6f %s\n", m.name, v, m.unit)
		ms[m.name] = value{v, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0 && attempted > 0, attempted, failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
