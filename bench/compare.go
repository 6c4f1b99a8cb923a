package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: which
// end-to-end metrics there are, which way is better, and by what share of
// the first file's value each may get worse.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload, every end-to-end metric of two result
// files with its change and whether that is within the metric's bound, then
// the per-layer delta table. It returns 1 if any end-to-end metric is
// outside its bound.
func compareFiles(aPath, bPath string) int {
	var spec benchmarkSpec
	if err := readJSON("BENCHMARK.json", &spec); err != nil {
		if err = readJSON("../BENCHMARK.json", &spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench: -compare needs BENCHMARK.json for the bounds:", err)
			return 2
		}
	}
	var a, b resultFile
	for path, into := range map[string]*resultFile{aPath: &a, bPath: &b} {
		if err := readJSON(path, into); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	fmt.Printf("# a: %s (nproc=%d seed=%d)  b: %s (nproc=%d seed=%d)\n",
		aPath, a.Record.NProc, a.Record.Seed, bPath, b.Record.NProc, b.Record.Seed)
	status := 0
	for _, w := range workloadNames {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Printf("\n== %s: end to end (failed a=%d/%d b=%d/%d)\n", w, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if wb.Failed > wa.Failed {
			status = 1
		}
		for _, e := range spec.EndToEnd {
			va, oka := wa.EndToEnd[e.Name]
			vb, okb := wb.EndToEnd[e.Name]
			if !oka || !okb {
				continue
			}
			worse := (vb.Value - va.Value) / va.Value // share of a by which b is worse
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "within"
			if worse > e.Bound {
				verdict, status = "OUTSIDE", 1
			}
			fmt.Printf("%-24s %14.6g %14.6g %-7s %+7.2f%% worse  %s bound %.0f%%\n",
				e.Name, va.Value, vb.Value, va.Unit, 100*worse, verdict, 100*e.Bound)
		}
		names := make([]string, 0, len(wa.PerLayer))
		for name := range wa.PerLayer {
			if _, ok := wb.PerLayer[name]; ok {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			continue
		}
		sort.Strings(names)
		fmt.Printf("-- %s: per layer\n", w)
		for _, name := range names {
			va, vb := wa.PerLayer[name], wb.PerLayer[name]
			fmt.Printf("%-40s %14.6g %14.6g %-7s %+14.6g\n", name, va.Value, vb.Value, va.Unit, vb.Value-va.Value)
		}
	}
	return status
}
