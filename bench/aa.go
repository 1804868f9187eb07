package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// worse is by how much b is worse than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worse(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaSeedOffset picks the A/A gate's second seed, one no number in this
// repository was tuned on.
const aaSeedOffset = 1296

// aaRow is one end-to-end metric of one workload on one seed, measured by
// two sets of runs of the same code.
type aaRow struct {
	Seed     int64   `json:"seed"`
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Gap      float64 `json:"gap"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// runAA is the noise gate: the same code measured as if it were two
// versions. Per workload the runs interleave A1 B1 A2 B2, each side's value
// is the mean of its two runs, and the gap between the sides must stay
// within the bound BENCHMARK.json gives the metric — a benchmark that
// cannot tell itself from itself cannot gate anything.
func runAA(w io.Writer, spec *benchSpec, sz sizes, seed int64, budget time.Duration, env string) (bool, error) {
	fmt.Fprintf(w, "# A/A noise gate: %s\n", env)
	var rows []aaRow
	ok := true
	for _, s := range []int64{seed, seed + aaSeedOffset} {
		for _, wl := range spec.Workloads {
			var side [2]map[string]float64
			for i := 0; i < 4; i++ {
				_, res, err := runWorkload(spec, sz, wl.Name, s, budget, false)
				if err != nil {
					return false, err
				}
				if !res.Correct {
					return false, fmt.Errorf("%s seed %d: a check failed during the A/A run", wl.Name, s)
				}
				if side[i%2] == nil {
					side[i%2] = map[string]float64{}
				}
				for name, m := range res.Metrics {
					side[i%2][name] += m.Value / 2
				}
			}
			for _, m := range spec.EndToEnd {
				a, b := side[0][m.Name], side[1][m.Name]
				gap := worse(m, a, b)
				if gap < 0 {
					gap = worse(m, b, a)
				}
				row := aaRow{Seed: s, Workload: wl.Name, Metric: m.Name, A: a, B: b, Gap: gap, Bound: m.Bound, OK: gap <= m.Bound}
				rows = append(rows, row)
				ok = ok && row.OK
				verdict := "ok"
				if !row.OK {
					verdict = "TOO NOISY"
				}
				fmt.Fprintf(w, "seed=%-5d %-15s %-16s A=%-14.4f B=%-14.4f gap=%5.2f%% bound=%4.0f%% %s\n",
					s, wl.Name, m.Name, a, b, gap*100, m.Bound*100, verdict)
			}
		}
	}
	data, err := json.MarshalIndent(map[string]any{"env": env, "rows": rows, "pass": ok}, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(spec.resultsDir(), 0o755); err != nil {
		return false, err
	}
	return ok, os.WriteFile(filepath.Join(spec.resultsDir(), "aa.json"), append(data, '\n'), 0o644)
}
