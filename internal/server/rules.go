package server

import (
	"time"

	"deepflow/internal/trace"
)

// Parent-selection rules (paper §3.3.2, Algorithm 1 second phase: "We set
// 16 rules based on the collection location, start time and finish time,
// span type, and message type").
//
// The rules fall into four families:
//
//   - Third-party references (R1–R3): explicit OTel parent/child IDs bind
//     app spans to each other and to the eBPF spans around them.
//   - Intra-component (R4–R6): systrace IDs, pseudo-thread IDs, and
//     X-Request-IDs nest a component's outgoing calls under the request
//     it is serving.
//   - Network path (R7–R13): spans of the same message (same flow and TCP
//     sequences) nest along the capture path
//     c → c-nic → c-node → gw → s-node → s-nic → s.
//   - Fallbacks (R14–R16): relaxed time conditions for clock skew and
//     cross-gateway X-Request-ID / trace-ID joins.
//
// Rules are evaluated in order; the first rule with a satisfying candidate
// wins, and ties are broken by tightest containment / nearest hop.

// clockSkewTolerance relaxes containment checks across hosts. The
// simulation's clocks are synchronized, so only syscall-granularity slack
// is needed; a real deployment would widen this.
const clockSkewTolerance = 2 * time.Microsecond

// tapRank orders capture locations along the request path.
func tapRank(t trace.TapSide) int {
	switch t {
	case trace.TapClientProcess:
		return 1
	case trace.TapClientNIC:
		return 2
	case trace.TapClientNode:
		return 3
	case trace.TapGateway:
		return 4
	case trace.TapServerNode:
		return 5
	case trace.TapServerNIC:
		return 6
	case trace.TapServerProcess:
		return 7
	default:
		return 0
	}
}

// contains reports whether p's interval contains c's, with skew tolerance.
func contains(p, c *trace.Span) bool {
	return !p.StartTime.After(c.StartTime.Add(clockSkewTolerance)) &&
		!p.EndTime.Before(c.EndTime.Add(-clockSkewTolerance))
}

// sameMessage reports whether two spans observed the same request/response
// exchange: same flow and same request TCP sequence (response sequence must
// agree when both sides saw one).
func sameMessage(a, b *trace.Span) bool {
	if a.ReqTCPSeq == 0 && a.RespTCPSeq == 0 {
		return false
	}
	if a.Flow.Canonical() != b.Flow.Canonical() {
		return false
	}
	if a.ReqTCPSeq != b.ReqTCPSeq {
		return false
	}
	if a.RespTCPSeq != 0 && b.RespTCPSeq != 0 && a.RespTCPSeq != b.RespTCPSeq {
		return false
	}
	return true
}

// isProcessSpan reports syscall- or uprobe-sourced process spans.
func isProcessSpan(s *trace.Span) bool {
	return s.Source == trace.SourceEBPF || s.Source == trace.SourceUProbe
}

// rule is one parent-selection rule.
type rule struct {
	id    int
	name  string
	match func(child, parent *trace.Span) bool
}

// parentRules is the ordered 16-rule table.
var parentRules = []rule{
	{1, "otel-explicit-parent", func(c, p *trace.Span) bool {
		return c.Source == trace.SourceOTel && c.ParentSpanRef != "" &&
			p.Source == trace.SourceOTel && p.SpanRef == c.ParentSpanRef
	}},
	{2, "otel-under-ebpf-server", func(c, p *trace.Span) bool {
		if c.Source != trace.SourceOTel || c.ParentSpanRef != "" ||
			!isProcessSpan(p) || p.TapSide != trace.TapServerProcess || !contains(p, c) {
			return false
		}
		// An app server span lives in the same process as the eBPF server
		// span that received its request; when the eBPF span parsed a
		// trace ID out of the request it must also agree.
		if p.ProcessName != c.ProcessName || p.HostName != c.HostName {
			return false
		}
		return p.TraceID == "" || p.TraceID == c.TraceID
	}},
	{3, "ebpf-client-under-app", func(c, p *trace.Span) bool {
		return isProcessSpan(c) && c.TapSide == trace.TapClientProcess &&
			c.ParentSpanRef != "" && p.Source == trace.SourceOTel &&
			p.SpanRef == c.ParentSpanRef
	}},
	{4, "client-under-server-systrace", func(c, p *trace.Span) bool {
		return isProcessSpan(c) && c.TapSide == trace.TapClientProcess &&
			isProcessSpan(p) && p.TapSide == trace.TapServerProcess &&
			c.SysTraceID != 0 && p.SysTraceID == c.SysTraceID && contains(p, c)
	}},
	{5, "client-under-server-pseudothread", func(c, p *trace.Span) bool {
		return isProcessSpan(c) && c.TapSide == trace.TapClientProcess &&
			isProcessSpan(p) && p.TapSide == trace.TapServerProcess &&
			c.PseudoThreadID != 0 && p.PseudoThreadID == c.PseudoThreadID &&
			p.HostName == c.HostName && p.SysTraceID != c.SysTraceID && contains(p, c)
	}},
	{6, "client-under-proxy-xrequestid", func(c, p *trace.Span) bool {
		return isProcessSpan(c) && c.TapSide == trace.TapClientProcess &&
			isProcessSpan(p) && p.TapSide == trace.TapServerProcess &&
			c.XRequestID != "" && p.XRequestID == c.XRequestID &&
			p.PID == c.PID && p.HostName == c.HostName && contains(p, c)
	}},
	// Network-path chain rules: the child at each hop nests under the
	// nearest present upstream hop of the same message. Enumerated by the
	// child's position; candidate filtering picks the nearest rank.
	{7, "cnic-under-client", chainRule(trace.TapClientNIC)},
	{8, "cnode-under-upstream", chainRule(trace.TapClientNode)},
	{9, "gateway-under-upstream", chainRule(trace.TapGateway)},
	{10, "snode-under-upstream", chainRule(trace.TapServerNode)},
	{11, "snic-under-upstream", chainRule(trace.TapServerNIC)},
	{12, "server-under-upstream", chainRule(trace.TapServerProcess)},
	{13, "server-under-client-direct", func(c, p *trace.Span) bool {
		// Pure-eBPF deployments with no packet taps: the server process
		// span nests directly under the client process span.
		return isProcessSpan(c) && c.TapSide == trace.TapServerProcess &&
			isProcessSpan(p) && p.TapSide == trace.TapClientProcess &&
			sameMessage(c, p)
	}},
	// Fallbacks.
	{14, "client-under-server-systrace-skew", func(c, p *trace.Span) bool {
		return isProcessSpan(c) && c.TapSide == trace.TapClientProcess &&
			isProcessSpan(p) && p.TapSide == trace.TapServerProcess &&
			c.SysTraceID != 0 && p.SysTraceID == c.SysTraceID &&
			!p.StartTime.After(c.StartTime)
	}},
	{15, "xrequestid-across-gateways", func(c, p *trace.Span) bool {
		return c.XRequestID != "" && p.XRequestID == c.XRequestID &&
			(p.TapSide == trace.TapServerProcess || p.TapSide == trace.TapGateway) &&
			!p.StartTime.After(c.StartTime) && p.ID != c.ID
	}},
	{16, "traceid-containment", func(c, p *trace.Span) bool {
		return c.TraceID != "" && p.TraceID == c.TraceID && contains(p, c) &&
			p.ID != c.ID
	}},
}

// chainRule builds the network-path matcher for a child tap position. Two
// hops of the same rank (a node NIC and a machine NIC both rank as node
// taps) order by capture time: the request reaches the upstream hop first.
func chainRule(side trace.TapSide) func(c, p *trace.Span) bool {
	childRank := tapRank(side)
	return func(c, p *trace.Span) bool {
		if c.TapSide != side {
			return false
		}
		pr := tapRank(p.TapSide)
		if pr <= 0 || pr > childRank {
			return false
		}
		if pr == childRank && !p.StartTime.Before(c.StartTime) {
			return false
		}
		return sameMessage(c, p)
	}
}

// chooseParent selects the best parent for child among candidates,
// returning nil when no rule fires. Rule order is the priority; within a
// rule the nearest-hop (highest tap rank) then tightest-interval candidate
// wins.
func chooseParent(child *trace.Span, candidates []*trace.Span) *trace.Span {
	p, _ := chooseParentRule(child, candidates)
	return p
}

// chooseParentRule is chooseParent plus the index into parentRules of the
// winning rule (-1 when none fires), so the self-monitoring plane can
// attribute parent decisions to individual rules.
func chooseParentRule(child *trace.Span, candidates []*trace.Span) (*trace.Span, int) {
	for ri, r := range parentRules {
		var best *trace.Span
		for _, p := range candidates {
			if p == child || p.ID == child.ID {
				continue
			}
			if !r.match(child, p) {
				continue
			}
			if best == nil || betterParent(child, p, best) {
				best = p
			}
		}
		if best != nil {
			return best, ri
		}
	}
	return nil, -1
}

// betterParent prefers the nearest upstream hop, then the tightest
// containing interval, then the later start.
func betterParent(child, a, b *trace.Span) bool {
	ra, rb := tapRank(a.TapSide), tapRank(b.TapSide)
	if ra != rb {
		return ra > rb
	}
	da, db := a.Duration(), b.Duration()
	if da != db {
		return da < db
	}
	return a.StartTime.After(b.StartTime)
}
