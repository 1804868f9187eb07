package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
)

// report collects what one run of one workload measured.
type report struct {
	workload string
	seed     int64
	traced   bool

	metrics map[string]float64
	how     map[string]string // statistic and sample count, for the printed table

	attempted int
	failed    int
	problems  []string // failed checks
}

func newReport(workload string, seed int64, traced bool) *report {
	return &report{workload: workload, seed: seed, traced: traced,
		metrics: map[string]float64{}, how: map[string]string{}}
}

func (r *report) set(name string, v float64, how string) {
	r.metrics[name] = v
	r.how[name] = how
}

// problem records a failed check; each one also counts as a failed
// operation, so a wrong answer can never look like a fast one.
func (r *report) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
	r.failed++
}

// result is the last line of standard output: the driver's contract.
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

// finish checks the report against the names BENCHMARK.json declares —
// every end-to-end metric must be present on an untraced run; a ledger row
// a workload does not exercise reads zero on a traced one — and returns
// the result.
func (r *report) finish(spec *benchSpec) result {
	want := spec.EndToEnd
	if r.traced {
		want = spec.PerLayer
	}
	known := map[string]bool{}
	res := result{Attempted: r.attempted, Metrics: map[string]metricValue{}}
	for _, m := range want {
		known[m.Name] = true
		v, ok := r.metrics[m.Name]
		if !ok && !r.traced {
			r.problem("end-to-end metric %s was not measured", m.Name)
		}
		if !r.traced && v == 0 {
			r.problem("end-to-end metric %s is zero", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range r.metrics {
		if !known[name] {
			r.problem("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Failed = r.failed
	res.Correct = len(r.problems) == 0
	return res
}

// pin sets the runtime configuration every run uses — at most two Ps (the
// simulator or feeder, and one more), default GC pacing whatever the
// environment says — and returns it for the header ahead of the metrics.
func pin() string {
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d GOGC=100 %s", runtime.NumCPU(), procs, runtime.Version())
}

// print writes the human-readable table, then the result line.
func (r *report) print(w io.Writer, spec *benchSpec, res result, env string) {
	mode := "end-to-end (tracing off)"
	if r.traced {
		mode = "per-layer ledger (traced run)"
	}
	fmt.Fprintf(w, "# %s seed=%d %s\n# %s\n", r.workload, r.seed, mode, env)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		how := r.how[name]
		if how == "" {
			how = "not exercised by this workload"
		}
		fmt.Fprintf(w, "%-40s %16.4f %-10s %s\n", name, m.Value, m.Unit, how)
	}
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d\n", res.Attempted, res.Failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	line, _ := json.Marshal(res) // a struct of numbers and strings always marshals
	fmt.Fprintf(w, "%s\n", line)
}
