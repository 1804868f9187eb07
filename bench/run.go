package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// procStart is as close to process start as the harness can see; set-up
// time is counted from here.
var procStart = time.Now()

// run is one invocation of one workload.
type run struct {
	spec   *benchSpec
	sz     sizes
	seed   int64
	budget time.Duration // --seconds: how long the measured reps go on
	rep    *report
	tr     *tracer // nil unless this is the traced run
	tmp    string  // this run's scratch directory, removed at exit
}

// verbose prints every rep's numbers to standard error (-v).
var verbose bool

// logReps shows the samples a reported statistic was taken from.
func (x *run) logReps(name string, v []float64) {
	if verbose {
		fmt.Fprintf(os.Stderr, "%s %s: %.4g\n", x.rep.workload, name, v)
	}
}

// track returns the tracer track for goroutine id, nil when tracing is off.
func (x *run) track(id int) *track { return x.tr.track(id) }

// dir makes a fresh directory under the run's scratch directory.
func (x *run) dir(name string) (string, error) {
	d := filepath.Join(x.tmp, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// setUp performs the workload's whole set-up — topology, corpus recording,
// preload and one discarded warm-up rep are all inside build — several
// times, so setup_s can be the median of whole set-ups instead of one
// sample; the last state is the one the measured reps use. The first
// sample also carries process start. A traced run reports no setup_s and
// sets up once.
func setUp[T any](x *run, build func() (T, error), drop func(T)) (T, error) {
	n := x.sz.setups
	if x.tr != nil {
		n = 1
	}
	var state T
	var took []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		} else {
			drop(state)
		}
		s, err := build()
		if err != nil {
			return state, fmt.Errorf("set-up %d: %w", i, err)
		}
		state = s
		took = append(took, time.Since(t0).Seconds())
	}
	if x.tr == nil {
		x.rep.set("setup_s", median(took), fmt.Sprintf("median of %d whole set-ups (each ends with the warm-up rep)", n))
	}
	return state, nil
}

// measure runs rep — fixed work each time — until at least minReps have
// run and the budget has elapsed, and returns how many ran. On the traced
// run every other rep gets a tracer track and the rest get nil, so traced
// and untraced reps face the same interference.
func (x *run) measure(rep func(i int, k *track) error) (int, error) {
	start := time.Now()
	i := 0
	for ; i < x.sz.minReps || (time.Since(start) < x.budget && i < 4*x.sz.minReps); i++ {
		var k *track
		if i%2 == 1 {
			x.tr.setRep(i)
			k = x.track(0)
		}
		if err := rep(i, k); err != nil {
			return i, fmt.Errorf("rep %d: %w", i, err)
		}
	}
	return i, nil
}

// overhead reports what tracing cost: the untraced best rate over the
// traced best rate.
func (x *run) overhead(untraced, traced []float64) {
	if len(untraced) == 0 || len(traced) == 0 || maxOf(traced) == 0 {
		return
	}
	x.rep.set("trace_overhead_pct", (maxOf(untraced)/maxOf(traced)-1)*100,
		fmt.Sprintf("best of %d untraced reps vs best of %d traced, alternating", len(untraced), len(traced)))
}

// selfRows turns the tracer's per-layer self time into ledger rows, per
// span processed in the traced reps.
func (x *run) selfRows(spans int, layers ...string) {
	if spans == 0 {
		return
	}
	self := x.tr.selfTimes()
	for _, layer := range layers {
		x.rep.set("self."+layer+"_us_per_span", us(self[layer])/float64(spans),
			fmt.Sprintf("harness spans named %s.*, minus children, over %d spans", layer, spans))
	}
}
