// Command bench is the repository's standing pipeline benchmark: four
// workloads that each load a different part of the span's journey
// (capture-live, ingest-durable, query-mixed, journey-live), measured from
// outside through the packages' public functions and counters.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// runs one workload and prints every metric by name with its unit, then —
// as the last line — the JSON result the driver reads. With -trace 0 the
// metrics are the end-to-end ones of BENCHMARK.json, taken with tracing
// off; with -trace 1 they are the per-layer ledger, taken on a traced run
// that also writes bench/results/trace-<workload>.json.
//
//	bench -suite            every workload, both runs
//	bench -aa               the suite twice, interleaved, on two seeds (noise gate)
//	bench -suite -record    also append the suite's numbers to bench/history.jsonl
//	bench -suite -compare   also diff them against the last same-nproc entry
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// defaultSeed shapes the simulated traffic when -seed is not given.
const defaultSeed = 41

var workloads = map[string]func(*run) error{
	"capture-live":   runCapture,
	"ingest-durable": runIngest,
	"query-mixed":    runQuery,
	"journey-live":   runJourney,
}

// runWorkload runs one workload once and returns its report and result.
func runWorkload(spec *benchSpec, sz sizes, name string, seed int64, budget time.Duration, traced bool) (*report, result, error) {
	fn := workloads[name]
	if fn == nil || !spec.hasWorkload(name) {
		return nil, result{}, fmt.Errorf("unknown workload %q", name)
	}
	x := &run{spec: spec, sz: sz, seed: seed, budget: budget, rep: newReport(name, seed, traced)}
	if traced {
		x.tr = newTracer()
	}
	if err := os.MkdirAll(spec.tmpDir(), 0o755); err != nil {
		return nil, result{}, err
	}
	tmp, err := os.MkdirTemp(spec.tmpDir(), name+"-")
	if err != nil {
		return nil, result{}, err
	}
	x.tmp = tmp
	defer os.RemoveAll(tmp)
	if err := fn(x); err != nil {
		return nil, result{}, fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		if err := x.tr.write(filepath.Join(spec.resultsDir(), "trace-"+name+".json")); err != nil {
			return nil, result{}, err
		}
	}
	return x.rep, x.rep.finish(spec), nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Int64("seed", defaultSeed, "seed of the simulated traffic")
		seconds  = flag.Int("seconds", 0, "how long the measured reps go on (default: run_seconds of BENCHMARK.json)")
		traceOn  = flag.Int("trace", 0, "1: the traced run, reporting the per-layer ledger")
		suite    = flag.Bool("suite", false, "run every workload, untraced then traced")
		aa       = flag.Bool("aa", false, "run the suite twice, interleaved, on two seeds, and fail on any gap beyond a metric's bound")
		record   = flag.Bool("record", false, "with -suite: append the numbers to bench/history.jsonl")
		compare  = flag.Bool("compare", false, "with -suite: diff the numbers against the last same-nproc history entry")
	)
	flag.BoolVar(&verbose, "v", false, "print every rep's numbers to standard error")
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	env := pin()
	sz := defaultSizes()
	budget := time.Duration(*seconds) * time.Second
	switch {
	case *aa:
		ok, err := runAA(os.Stdout, spec, sz, *seed, budget, env)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *suite:
		ok, err := runSuite(os.Stdout, spec, sz, *seed, budget, env, *record, *compare)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		rep, res, err := runWorkload(spec, sz, *workload, *seed, budget, *traceOn != 0)
		if err != nil {
			fatal(err)
		}
		rep.print(os.Stdout, spec, res, env)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runSuite runs every workload untraced, then traced, printing each
// report; it returns false if any check failed.
func runSuite(w io.Writer, spec *benchSpec, sz sizes, seed int64, budget time.Duration, env string, record, compare bool) (bool, error) {
	ok := true
	entry := newHistoryEntry(spec, seed)
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			rep, res, err := runWorkload(spec, sz, wl.Name, seed, budget, traced)
			if err != nil {
				return false, err
			}
			rep.print(w, spec, res, env)
			fmt.Fprintln(w)
			ok = ok && res.Correct
			if !traced {
				entry.add(wl.Name, res)
			}
		}
	}
	path := filepath.Join(spec.root, "bench", "history.jsonl")
	if compare {
		if regressed, err := compareHistory(w, spec, path, entry); err != nil {
			return false, err
		} else if regressed {
			ok = false
		}
	}
	if record && ok {
		if err := appendHistory(path, entry); err != nil {
			return false, err
		}
		fmt.Fprintf(w, "recorded %s @ %s\n", entry.Commit, path)
	}
	return ok, nil
}
