package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// contract is the part of BENCHMARK.json the harness must agree with.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedMetric `json:"end_to_end"`
	PerLayer []namedMetric `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	var c contract
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var tiny = config{seed: 3, seconds: 0.05, scale: 0.02}

// TestHarnessSmoke runs all four workloads at a few percent of their
// operation counts, untraced and traced, and checks that what they emit is
// exactly what BENCHMARK.json names: every metric once, finite, with its
// unit, and no other.
func TestHarnessSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, w.Name, workloadNames[i])
		}
		for _, traced := range []bool{false, true} {
			cfg := tiny
			cfg.workload, cfg.trace = w.Name, traced
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			// In parallel: nothing here asserts a time, and a third of the
			// test's own is building 1,000-subscription matchers.
			t.Run(fmt.Sprintf("%s/trace=%v", cfg.workload, traced), func(t *testing.T) {
				t.Parallel()
				checkRun(t, cfg, want)
			})
		}
	}
}

func checkRun(t *testing.T, cfg config, want []namedMetric) {
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Errorf("%d of %d operations failed", out.failed, out.attempted)
	}
	m := out.metrics
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	listed := map[string]bool{}
	for _, nm := range want {
		listed[nm.Name] = true
		got, ok := m[nm.Name]
		switch {
		case !ok:
			t.Errorf("%s is in BENCHMARK.json and was not emitted", nm.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s = %v", nm.Name, got.Value)
		case got.Unit != nm.Unit:
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", nm.Name, got.Unit, nm.Unit)
		}
	}
	for emitted := range m {
		if !listed[emitted] {
			t.Errorf("%s was emitted and is not in BENCHMARK.json", emitted)
		}
		if !name.MatchString(emitted) || len(emitted) > 64 {
			t.Errorf("metric name %q is outside the contract's alphabet", emitted)
		}
	}
	if cfg.trace {
		checkTrace(t, filepath.Join(outDir(), cfg.workload+".trace.jsonl"))
	}
}

// checkTrace parses a trace file and checks that every span's parent is a
// span of the same trace.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	inTrace := map[int64]int64{} // span id → trace id
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.End < s.Start || s.Layer == "" {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		spans = append(spans, s)
		inTrace[s.Span] = s.Trace
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if tr, ok := inTrace[s.Parent]; !ok || tr != s.Trace {
			t.Errorf("%s: span %d (%s) names parent %d, which is not a span of trace %d", path, s.Span, s.Layer, s.Parent, s.Trace)
		}
	}
}

// TestWrongVerdictFails flips one verdict of the reference and expects the
// run to count failures and to exit non-zero.
func TestWrongVerdictFails(t *testing.T) {
	cfg := tiny
	cfg.workload, cfg.corrupt = "serve", true
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 {
		t.Error("a corrupted reference verdict produced no failed operation")
	}
	if code := runOne(cfg); code == 0 {
		t.Error("a run with failed operations exited 0")
	}
}
