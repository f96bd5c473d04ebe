package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runOnce runs the benchmark with args and returns its JSON result and
// the whole standard output.
func runOnce(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	return res, stdout.String()
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and checks that each run is correct and reports exactly the metrics
// the catalog declares.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, tc := range []struct {
				trace string
				defs  []metricDef
			}{{"0", endToEnd}, {"1", perLayer}} {
				res, out := runOnce(t, "--workload", w.name, "--seed", "3", "--seconds", "0.6", "--trace", tc.trace)
				if !res.Correct {
					t.Fatalf("trace %s: run not correct:\n%s", tc.trace, out)
				}
				if res.Attempted < 1 || res.Failed > res.Attempted {
					t.Fatalf("trace %s: attempted %d, failed %d", tc.trace, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(tc.defs) {
					t.Fatalf("trace %s: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.defs))
				}
				for _, d := range tc.defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Fatalf("trace %s: metric %s = %+v, want unit %s", tc.trace, d.name, m, d.unit)
					}
				}
				if tc.trace == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			}
		})
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "echo", "--seconds", "0"},
		{"--workload", "echo", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("run %v exited %d with output %q", args, code, stdout.String())
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json at the
// repository root in step with the metrics and workloads defined here.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
