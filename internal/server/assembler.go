package server

import (
	"sort"

	"deepflow/internal/selfmon"
	"deepflow/internal/trace"
)

// DefaultIterations is Algorithm 1's default iteration bound (paper: "the
// user-specified iteration times (the default is 30)").
const DefaultIterations = 30

// AssocMask selects which implicit-association keys the iterative span
// search may follow; the ablation experiments knock out one key at a time
// to measure each association's contribution to trace completeness.
type AssocMask uint8

// Association keys (Algorithm 1, lines 6–10).
const (
	AssocSysTrace AssocMask = 1 << iota
	AssocPseudoThread
	AssocXRequestID
	AssocTCPSeq
	AssocTraceID

	// AssocAll enables every association.
	AssocAll = AssocSysTrace | AssocPseudoThread | AssocXRequestID | AssocTCPSeq | AssocTraceID
)

// finishTrace runs Algorithm 1's phases 2–3 on an assembled span set: pick
// a parent for every span, break fallback-rule cycles, and order for
// display. The set is canonically ID-sorted first so the parent chosen
// among equally-matching candidates never depends on map iteration order —
// or, for a partitioned store, on which partition contributed which span.
func finishTrace(spans []*trace.Span, ruleHits []*selfmon.Counter) *trace.Trace {
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })

	// Phase 2: set parents (lines 18–24).
	for _, sp := range spans {
		if parent, ruleIdx := chooseParentRule(sp, spans); parent != nil {
			sp.ParentID = parent.ID
			if ruleHits != nil {
				ruleHits[ruleIdx].Inc()
			}
		}
	}
	breakCycles(spans)

	// Phase 3: sort by time and parent relationship (line 25).
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if !a.StartTime.Equal(b.StartTime) {
			return a.StartTime.Before(b.StartTime)
		}
		if ra, rb := tapRank(a.TapSide), tapRank(b.TapSide); ra != rb {
			return ra < rb
		}
		return a.ID < b.ID
	})

	tr := &trace.Trace{Spans: spans}
	for _, sp := range spans {
		if sp.ParentID == 0 {
			tr.Root = sp
			break
		}
	}
	if tr.Root == nil && len(spans) > 0 {
		tr.Root = spans[0]
	}
	return tr
}

// assembleAcross implements Algorithm 1 over a partitioned store: starting
// from a user-chosen span, it iteratively expands the span set through the
// enabled association indexes (systrace IDs, pseudo-thread IDs,
// X-Request-IDs, TCP sequences, trace IDs) until a fixed point or the
// iteration bound (lines 2–16), then finishTrace selects a parent for every
// span using the 16-rule table and orders the trace for display. The search
// probes every partition's indexes, so a trace whose spans were hashed to
// different ingest shards still assembles whole, and the result is
// byte-identical at any partition count over the same corpus — phase 1's
// span set is order-insensitive and finishTrace canonicalizes the rest.
// Spans are cloned as they join the set, under each partition's read lock,
// so ingest workers keep inserting and the later phases are lock-free.
func assembleAcross(stores []*SpanStore, start trace.SpanID, iterations int, mask AssocMask) *trace.Trace {
	if iterations <= 0 {
		iterations = DefaultIterations
	}
	var startSp *trace.Span
	for _, st := range stores {
		if sp := st.Span(start); sp != nil {
			startSp = sp.Clone()
			break
		}
	}
	if startSp == nil {
		return nil
	}
	inSet := map[trace.SpanID]*trace.Span{startSp.ID: startSp}
	frontier := []*trace.Span{startSp}
	itersUsed := 0
	for iter := 0; iter < iterations && len(frontier) > 0; iter++ {
		itersUsed = iter + 1
		var next []*trace.Span
		for _, sp := range frontier {
			for _, st := range stores {
				for _, rel := range st.relatedSpans(sp, mask) {
					if _, seen := inSet[rel.ID]; !seen {
						c := rel.Clone()
						inSet[c.ID] = c
						next = append(next, c)
					}
				}
			}
		}
		frontier = next
	}
	spans := make([]*trace.Span, 0, len(inSet))
	for _, sp := range inSet {
		spans = append(spans, sp)
	}
	if stores[0].mAssembleIters != nil {
		stores[0].mAssembleIters.Observe(float64(itersUsed))
	}
	if stores[0].mAssembleSpans != nil {
		stores[0].mAssembleSpans.Observe(float64(len(spans)))
	}
	return finishTrace(spans, stores[0].ruleHits)
}

// breakCycles detaches the back edge of any parent cycle (possible only
// under contradictory fallback rules), leaving a forest. It detaches a
// span *inside* the cycle, so spans whose parent chains merely reach a
// cycle keep their links.
func breakCycles(spans []*trace.Span) {
	byID := make(map[trace.SpanID]*trace.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	const (
		unvisited = 0
		onPath    = 1
		done      = 2
	)
	state := make(map[trace.SpanID]int, len(spans))
	for _, sp := range spans {
		if state[sp.ID] != unvisited {
			continue
		}
		var path []*trace.Span
		cur := sp
		for cur != nil && state[cur.ID] == unvisited {
			state[cur.ID] = onPath
			path = append(path, cur)
			if cur.ParentID == 0 {
				cur = nil
				break
			}
			next := byID[cur.ParentID]
			if next != nil && state[next.ID] == onPath {
				cur.ParentID = 0 // back edge closes a cycle: cut here
				cur = nil
				break
			}
			cur = next
		}
		for _, p := range path {
			state[p.ID] = done
		}
	}
}
