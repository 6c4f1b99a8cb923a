// Command bench is the repository's benchmark: four workloads over the
// whole path from wire bytes to webhook delivery, end-to-end metrics
// measured with tracing off and per-layer metrics from a separate traced
// run, every verdict checked against internal/semantics. BENCHMARK.json at
// the repository root names the metrics and their regression bounds;
// README.md in this directory says what each one means.
//
//	bash bench/run.sh                                   # every workload, both runs
//	bash bench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// config is one run: a workload, its seed, how long to measure, and which
// of the two kinds of run it is.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks every fixed operation count; 1 from the command line.
	// The smoke test runs the whole harness at a few percent.
	scale float64
	// corrupt flips one verdict of the reference; the smoke test uses it
	// to show that a wrong verdict is caught.
	corrupt bool
}

// phase bounds one measured phase: rounds of fixed work are run until the
// budget is spent, and never fewer than minRounds.
type phase struct {
	budget    time.Duration
	minRounds int
	ackOps    int
}

// record says where and how a result was measured.
type record struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go_version"`
	CPU        string         `json:"cpu_model"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Scale      float64        `json:"scale"`
	RoundOps   map[string]int `json:"round_ops"`
	ServeRate  int            `json:"serve_rate_per_s"`
}

func newRecord(cfg config) record {
	return record{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: cpuModel(), Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
		RoundOps: map[string]int{}, ServeRate: serveRate,
	}
}

// workloadResult is what one workload's runs reported.
type workloadResult struct {
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	EndToEnd  metrics `json:"end_to_end,omitempty"`
	PerLayer  metrics `json:"per_layer,omitempty"`
}

// resultFile is the shape of every file under bench/out/ and of both
// arguments of -compare.
type resultFile struct {
	Record    record                     `json:"record"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// outDir is bench/out/ from the repository root and out/ from inside bench/.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func startSystem(sp *spec) (system, error) {
	if sp.name == "serve" {
		return startServe(sp)
	}
	return startLibrary(sp)
}

// outcome is what one run of one workload reports.
type outcome struct {
	metrics           metrics
	attempted, failed int64
	roundOps          int
}

// setups is how many times an untraced run sets up, for the median.
const setups = 7

// run executes one workload once: the end-to-end metrics without tracing,
// the per-layer metrics with it.
func run(cfg config) (*outcome, error) {
	sp, err := buildSpec(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	orc, err := buildOracle(sp, cfg.corrupt)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory() // the reference's document trees are the harness's, not the program's

	// Set-up is what a user pays before the first timed document: corpus
	// generation, subscription compile, warm-up. The measured phase runs
	// on the first set-up; an untraced run then sets up six more times,
	// each from nothing, and reports the median of the seven. (Doing them
	// first would leave their garbage in the measured phase's RSS.)
	var setupS []float64
	setUp := func() (system, error) {
		start := time.Now()
		var err error
		if sp, err = buildSpec(cfg.workload, cfg.seed, cfg.scale); err != nil {
			return nil, err
		}
		sys, err := startSystem(sp)
		setupS = append(setupS, time.Since(start).Seconds())
		return sys, err
	}
	sys, err := setUp()
	if err != nil {
		return nil, err
	}
	defer sys.close()

	out := &outcome{metrics: metrics{}, roundOps: sp.roundOps}
	if cfg.trace {
		return out, traced(cfg, sp, orc, sys, out)
	}
	if err := untraced(cfg, sp, orc, sys, out); err != nil {
		return nil, err
	}
	for len(setupS) < setups && cfg.scale == 1 {
		again, err := setUp()
		if err != nil {
			return nil, err
		}
		again.close()
	}
	out.metrics.set("setup_s", median(setupS), "s", len(setupS))
	return out, nil
}

// phases returns the measured phase of an untraced run and the short one a
// traced run measures twice.
func phases(cfg config) (full, short phase) {
	budget := time.Duration(cfg.seconds * float64(time.Second))
	full = phase{budget: budget, minRounds: minRounds}
	short = phase{budget: budget * 15 / 100, minRounds: 3, ackOps: ackOps}
	if cfg.scale < 1 {
		full.minRounds, short.ackOps = 3, 4
	}
	return full, short
}

func untraced(cfg config, sp *spec, orc *oracle, sys system, out *outcome) error {
	full, _ := phases(cfg)
	st, err := sys.e2e(full, orc, nil)
	if err != nil {
		return err
	}
	bits, err := stateBits(sp)
	if err != nil {
		return err
	}
	out.attempted, out.failed = st.attempted, st.failed
	if si, ok := sys.(*serveInst); ok {
		out.failed += si.undelivered()
	}
	m := out.metrics
	m.set("docs_per_s", slices.Max(st.docsPerS), "docs/s", len(st.docsPerS))
	m.set("mb_per_s", slices.Max(st.mbPerS), "MB/s", len(st.mbPerS))
	m.set("doc_p50_us", slices.Min(st.p50us), "us", len(st.p50us))
	m.set("live_heap_mb", st.liveHeapMB, "MB", 0)
	m.set("state_bits", bits, "bits", len(sp.docs))
	return nil
}

// traced is the traced run: a short measured phase without the tracer, the
// same again with it (their difference is the tracing overhead), then the
// ladder replay and the single-layer measurements.
func traced(cfg config, sp *spec, orc *oracle, sys system, out *outcome) error {
	full, short := phases(cfg)
	m, tr, start := out.metrics, newTracer(), time.Now()
	base, err := sys.e2e(short, orc, nil)
	if err != nil {
		return err
	}
	withSpans, err := sys.e2e(short, orc, tr)
	if err != nil {
		return err
	}
	si, ok := sys.(*serveInst)
	if !ok {
		if si, err = startServe(sp); err != nil {
			return err
		}
		defer si.close()
	}
	l, err := newLadder(sp, si, orc)
	if err != nil {
		return err
	}
	defer l.close()
	passes := 0
	for ; passes < full.minRounds/2+1 || time.Since(start) < full.budget*8/10; passes++ {
		l.pass(tr)
	}
	l.report(m)
	if err := recompile(sp, full.minRounds+3, m); err != nil {
		return err
	}
	coreFailed, err := coreFilter(sp, orc, m["sax.events_per_doc"].Value, m)
	if err != nil {
		return err
	}
	if err := earlyExit(sp, m); err != nil {
		return err
	}
	if err := parallelModes(sp, 4*sp.roundOps, m); err != nil {
		return err
	}
	for name, v := range base.layer {
		m[name] = v
	}
	outer := l.arm("L3")
	if sp.name == "serve" {
		outer = l.arm("L7")
	}
	p50, rate := slices.Min(base.p50us), slices.Max(base.docsPerS)
	m.set("ladder.residual_frac", (p50-outer.p50())/p50, "ratio", 0)
	m.set("trace.overhead_frac", (rate-slices.Max(withSpans.docsPerS))/rate, "ratio", len(withSpans.docsPerS))
	m.set("oracle.check_s", orc.elapsed.Seconds(), "s", 1)
	m.set("gen.alloc_b_per_doc", base.allocPerDoc, "B/doc", int(base.attempted))
	m.set("gen.peak_rss_mb", base.rssMB, "MB", 0)
	// Tail latency and mutation acks are informational: on the reference
	// host their run-to-run spread is wider than any bound they could be
	// given (see README.md), so they are no end-to-end metrics.
	m.set("gen.doc_p99_us", slices.Min(base.p99us), "us", len(base.p99us))
	m.set("gen.mutation_ack_p50_us", slices.Min(base.ackP50us), "us", base.acks)
	m.set("gen.mutation_ack_p95_us", slices.Min(base.ackP95us), "us", base.acks)

	out.attempted = base.attempted + withSpans.attempted + int64(passes*len(l.arms)*len(sp.docs))
	out.failed = base.failed + withSpans.failed + l.failed + coreFailed + si.undelivered()
	return tr.write(filepath.Join(outDir(), sp.name+".trace.jsonl"))
}

// runOne is the driver's entry: one workload, one kind of run. It prints
// every metric by name, writes the result file, and ends with the one-line
// JSON summary.
func runOne(cfg config) int {
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	name, m := cfg.workload, out.metrics
	rec := newRecord(cfg)
	rec.RoundOps[name] = out.roundOps
	wr := &workloadResult{Attempted: out.attempted, Failed: out.failed}
	kind := "end_to_end"
	if cfg.trace {
		wr.PerLayer, kind = m, "per_layer"
	} else {
		wr.EndToEnd = m
	}
	fmt.Printf("# %s seed=%d %s: nproc=%d GOMAXPROCS=%d %s, %q, round_ops=%d serve_rate=%d/s scale=%g\n",
		name, cfg.seed, kind, rec.NProc, rec.GOMAXPROCS, rec.Go, rec.CPU, out.roundOps, serveRate, cfg.scale)
	printMetrics(name, m)
	fmt.Printf("%-12s %-40s %14.6g %-7s n=%d\n", name, "failed_frac",
		float64(out.failed)/float64(out.attempted), "ratio", out.attempted)
	trace := 0
	if cfg.trace {
		trace = 1
	}
	path := filepath.Join(outDir(), fmt.Sprintf("%s.trace%d.json", name, trace))
	if err := writeJSON(path, resultFile{Record: rec, Workloads: map[string]*workloadResult{name: wr}}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]wire{}}
	for name, v := range m {
		summary.Metrics[name] = wire{v.Value, v.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed or disagreed with internal/semantics\n",
			name, out.failed, out.attempted)
		return 1
	}
	return 0
}

func printMetrics(workload string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		fmt.Printf("%-12s %-40s %14.6g %-7s n=%d\n", workload, name, v.Value, v.Unit, v.N)
	}
}

// runAll is the one command: every workload in a fresh child process (its
// own heap and set-up), untraced and then traced, merged into
// bench/out/result.json.
func runAll(cfg config) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	all := resultFile{Record: newRecord(cfg), Workloads: map[string]*workloadResult{}}
	status := 0
	for _, w := range workloadNames {
		merged := &workloadResult{}
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(exe, "--workload", w, "--seed", fmt.Sprint(cfg.seed),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(trace))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s --trace %d: %v\n", w, trace, err)
				status = 1
			}
			var part resultFile
			data, err := os.ReadFile(filepath.Join(outDir(), fmt.Sprintf("%s.trace%d.json", w, trace)))
			if err == nil {
				err = json.Unmarshal(data, &part)
			}
			if err != nil || part.Workloads[w] == nil {
				fmt.Fprintf(os.Stderr, "bench: %s --trace %d left no result: %v\n", w, trace, err)
				status = 1
				continue
			}
			got := part.Workloads[w]
			merged.Attempted += got.Attempted
			merged.Failed += got.Failed
			if trace == 0 {
				merged.EndToEnd = got.EndToEnd
			} else {
				merged.PerLayer = got.PerLayer
			}
			all.Record.RoundOps[w] = part.Record.RoundOps[w]
		}
		all.Workloads[w] = merged
	}
	path := filepath.Join(outDir(), "result.json")
	if err := writeJSON(path, all); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("# wrote", path)
	return status
}

func main() {
	var cfg config
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (scan, fanout-pred, churn, serve); empty runs all four, untraced and traced")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()
	cfg.trace, cfg.scale = trace != 0, 1
	switch {
	case compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case cfg.workload == "":
		os.Exit(runAll(cfg))
	default:
		os.Exit(runOne(cfg))
	}
}
