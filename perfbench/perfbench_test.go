package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// shortRun runs one workload with a one-second window and returns the
// printed "metric" lines as name -> unit, and the result.
func shortRun(t *testing.T, workload string, trace, corrupt bool) (map[string]string, *result) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(context.Background(), options{workload: workload, seed: 3, window: time.Second,
		trace: trace, work: t.TempDir(), setups: 1, corrupt: corrupt}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	printed := map[string]string{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && f[0] == "metric" {
			printed[f[1]] = f[3]
		}
	}
	return printed, res
}

// TestWorkloadsMatchBenchmarkFile requires every workload BENCHMARK.json
// lists to exist; write-mix runs from the same command but is not listed.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestEveryEndToEndMetricPrinted runs each workload briefly and requires
// every end-to-end metric of BENCHMARK.json on a printed line with its
// unit and in the result line, with a passing oracle.
func TestEveryEndToEndMetricPrinted(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			printed, res := shortRun(t, w.name, false, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("result: correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(bf.EndToEnd))
			}
			for _, m := range bf.EndToEnd {
				if printed[m.Name] != m.Unit {
					t.Errorf("metric %s printed with unit %q, want %q", m.Name, printed[m.Name], m.Unit)
				}
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit || v.Value <= 0 {
					t.Errorf("result metric %s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			// Printed, though not bounded in BENCHMARK.json.
			if printed["error_rate"] != "ratio" {
				t.Errorf("error_rate not printed with its unit")
			}
		})
	}
}

// TestEveryPerLayerMetricPrinted runs a traced read-cached window, whose
// write probe also exercises the write-path layers.
func TestEveryPerLayerMetricPrinted(t *testing.T) {
	bf := loadBenchmarkFile(t)
	printed, res := shortRun(t, "read-cached", true, false)
	if !res.Correct {
		t.Fatal("traced run failed its checks")
	}
	if len(res.Metrics) != len(bf.PerLayer) {
		t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(bf.PerLayer))
	}
	for _, m := range bf.PerLayer {
		if printed[m.Name] != m.Unit {
			t.Errorf("metric %s printed with unit %q, want %q", m.Name, printed[m.Name], m.Unit)
		}
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("result metric %s = %+v, want unit %s", m.Name, v, m.Unit)
		}
	}
}

// TestOracleFailsOnCorruptAnswer hands the oracle one falsified answer and
// requires the run to fail.
func TestOracleFailsOnCorruptAnswer(t *testing.T) {
	for _, w := range []string{"read-cached", "write-mix"} {
		t.Run(w, func(t *testing.T) {
			_, res := shortRun(t, w, false, true)
			if res.Correct {
				t.Fatal("a corrupted answer passed the oracle")
			}
		})
	}
}

func TestSelfName(t *testing.T) {
	if got := selfName("server.query_us"); got != "server.query_self_us" {
		t.Fatalf("selfName = %q", got)
	}
}

func TestCovered(t *testing.T) {
	// Overlapping and out-of-range children count once, clipped to the parent.
	got := covered([][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 30}}, 2, 25)
	if got != 1+(12-5)+5 { // [2,3] + [5,12] + [20,25]
		t.Fatalf("covered = %d, want 13", got)
	}
}
