package main

import (
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks every workload to a corpus of a few thousand spans, so
// the whole file runs in a few seconds.
func tinySizes() sizes {
	sz := defaultSizes()
	sz.bookinfoRPS, sz.bookinfoConns, sz.polyglotRPS, sz.polyglotConns = 100, 4, 25, 2
	sz.captureVirt, sz.journeyVirt = 1500*time.Millisecond, 1500*time.Millisecond
	sz.ingestVirt, sz.preloadVirt, sz.replayVirt = 1500*time.Millisecond, 1500*time.Millisecond, 500*time.Millisecond
	sz.streamRate = 2000
	sz.drillRoots = 6
	sz.setups, sz.minReps, sz.journeyAsks = 1, 2, 1
	return sz
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecWithinContract holds BENCHMARK.json to the limits the driver
// refuses a file over.
func TestSpecWithinContract(t *testing.T) {
	spec := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v", m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestWorkloadsReportDeclaredNames runs every workload, untraced and
// traced, on the tiny corpus: each must report every end-to-end metric,
// nothing BENCHMARK.json does not declare, and pass its own checks — the
// session digest equal at one and two shards, across a kill and recovery,
// across reps, and the replay glue faithful to the real agents. Only the
// ledger's coverage tolerance and the layer-separation inequalities are
// waived: they are stated for the full corpus, not for a few thousand spans.
func TestWorkloadsReportDeclaredNames(t *testing.T) {
	spec := testSpec(t)
	used := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			rep, res, err := runWorkload(spec, tinySizes(), w.Name, defaultSeed, 300*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, p := range rep.problems {
				if !strings.HasPrefix(p, "ledger.coverage") && !strings.HasPrefix(p, "separation:") {
					t.Errorf("%s traced=%v: %s", w.Name, traced, p)
				}
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
			for name := range rep.metrics {
				used[name] = true
			}
		}
	}
	// A ledger row no workload fills is a row nobody can read.
	for _, m := range spec.PerLayer {
		if !used[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", m.Name)
		}
	}
}

// stallingServer is an ingester whose Drain takes a fixed time.
type stallingServer struct{ stall time.Duration }

func (s stallingServer) IngestBatch([]byte) error { return nil }
func (s stallingServer) Drain()                   { time.Sleep(s.stall) }

// TestOpenLoopTimesFromDueTime: five batches due a millisecond apart into a
// server that stalls 30 ms on each. Timed from when each batch was sent,
// every one would read 30 ms; timed from when it was due, the stall piles
// up and the last reads about 150 ms.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	batches := make([]wireBatch, 5)
	for i := range batches {
		batches[i].spans = 1
	}
	st := streamOpenLoop(stallingServer{30 * time.Millisecond}, batches, 1000, nil)
	if st.err != nil || len(st.freshMS) != 5 {
		t.Fatalf("feeder: %+v", st)
	}
	if first, last := st.freshMS[0], st.freshMS[4]; last < first+100 {
		t.Errorf("fresh_ms hides the stall: first %.1f ms, last %.1f ms", first, last)
	}
	if late := st.lateMS[4]; late < 100 {
		t.Errorf("generator lateness of the last batch %.1f ms, want about 116", late)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	k := tr.track(0)
	endOuter := k.span("server.outer")
	time.Sleep(2 * time.Millisecond)
	endInner := k.span("query.inner")
	time.Sleep(4 * time.Millisecond)
	endInner()
	endOuter()
	self := tr.selfTimes()
	if self["query"] < 4*time.Millisecond || self["server"] < 2*time.Millisecond || self["server"] > self["query"] {
		t.Errorf("self times %v: the child's 4 ms must not count for the parent", self)
	}
	var nilTrack *track
	nilTrack.span("x.y")() // tracing off: no-op, no panic
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got, pct := tail(v); pct != 90 || got != 90 {
		t.Errorf("tail of 100 samples = p%d %v, want p90 90", pct, got)
	}
	if _, pct := tail(v[:20]); pct != 50 {
		t.Errorf("tail of 20 samples = p%d, want the median", pct)
	}
	if _, pct := tail(append(v, v...)); pct != 95 {
		t.Errorf("tail of 200 samples = p%d, want p95", pct)
	}
}
