// Command perfbench is multilogd's request-path benchmark. One process
// starts an in-process server with multilogd's defaults (admission at 64
// cost units, a 4096-entry result cache, a WAL with fsync=always), loads a
// seeded generated program, serves it on a loopback listener and drives it
// with two closed-loop callers over two connections, multiplexing 15
// sessions (5 clearances x 3 belief modes).
//
//	perfbench --workload read-cached|read-uncached|write-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// first measures an untraced window, then a traced one that runs sampled
// requests in-process and replays their layer calls under spans, and prints
// the per-layer metrics. Every line "metric <name> <value> <unit>" names
// one metric; the last line is a JSON result. After the timed window an
// oracle re-derives served answers with the interpreter engine and the run
// fails on any mismatch. See README.md for what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

type options struct {
	workload string
	seed     int64 // request streams and oracle samples
	window   time.Duration
	trace    bool
	work     string // data directories and span dumps go here
	setups   int    // setup_s is the median of this many set-ups
	// corrupt falsifies one recorded answer before the oracle sees it; the
	// benchmark's own test uses it to show that the oracle fails the run.
	corrupt bool
}

// bench is one run: its options and the workload they name.
type bench struct {
	options
	spec workloadSpec
}

func main() {
	o := options{setups: 3}
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "read-cached, read-uncached or write-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the request streams and the oracle's samples")
	flag.IntVar(&seconds, "seconds", 30, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced window and reports per-layer metrics")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for WAL data and span dumps")
	flag.Parse()
	o.window = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered list of named measurements.
type metrics struct {
	names []string
	vals  map[string]metricValue
}

func (m *metrics) set(name string, value float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metricValue{}
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metricValue{Value: value, Unit: unit}
}

func (m *metrics) print(w io.Writer) {
	for _, n := range m.names {
		v := m.vals[n]
		fmt.Fprintf(w, "metric %s %v %s\n", n, v.Value, v.Unit)
	}
}

func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	spec, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want read-cached, read-uncached or write-mix)", o.workload)
	}
	if o.window <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	o.setups = max(o.setups, 1)
	b := &bench{options: o, spec: spec}
	fmt.Fprintf(out, "workload %s seed %d program-seed %d window %s trace %v\n",
		spec.name, o.seed, programSeed, o.window, o.trace)
	fmt.Fprintf(out, "why %s\n", spec.why)
	m, res, err := b.measure(ctx)
	if err != nil {
		return nil, err
	}
	m.print(out)
	res.Metrics = map[string]metricValue{}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, name := range want {
		v, ok := m.vals[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = v
	}
	return res, nil
}
