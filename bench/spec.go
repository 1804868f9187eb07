package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the single source of metric and
// workload names: the harness prints exactly what the file declares and
// refuses to report a name the file does not know.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	// root is the checkout directory BENCHMARK.json was found in; every
	// file the harness writes goes under it.
	root string
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (the harness runs from the checkout root under run.sh and from bench/
// under `go run -C bench .` and `go test`).
func loadSpec() (*benchSpec, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		if s.root, err = filepath.Abs(dir); err != nil {
			return nil, err
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *benchSpec) endToEnd(name string) (metricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// resultsDir is where trace files, aa.json and temp data go.
func (s *benchSpec) resultsDir() string { return filepath.Join(s.root, "bench", "results") }

// tmpDir is the parent of every durable-store directory the harness
// creates: always the same place under the checkout, so fsync cost is that
// of one filesystem on every run.
func (s *benchSpec) tmpDir() string { return filepath.Join(s.root, ".bench_build", "tmp") }
