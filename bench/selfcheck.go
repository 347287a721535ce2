package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is BENCHMARK.json as the benchmark itself reads it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runSelfcheck runs every workload's end-to-end run twice, set after set
// as the driver does, and prints per workload and metric both values,
// their relative difference and the bound. It fails if any pair differs
// by more than its bound: the benchmark cannot then tell a regression of
// that size from its own noise.
func runSelfcheck(stdout io.Writer, specPath string, seed int64, sh shape) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range workloads() {
			res, err := runEndToEnd(w, seed, sh)
			if err != nil {
				return err
			}
			sets[i][w.name] = res
		}
	}
	fmt.Fprintf(stdout, "%-14s %-14s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	var over []string
	for _, w := range workloads() {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][w.name].Metrics[m.Name].Value, sets[1][w.name].Metrics[m.Name].Value
			diff := relDiff(a, b)
			mark := ""
			if diff > m.Bound {
				mark = "  OVER"
				over = append(over, w.name+"/"+m.Name)
			}
			fmt.Fprintf(stdout, "%-14s %-14s %14.6g %14.6g %7.2f%% %6.0f%%%s\n", w.name, m.Name, a, b, diff*100, m.Bound*100, mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("%d pairs differ by more than their bound: %v", len(over), over)
	}
	return nil
}
