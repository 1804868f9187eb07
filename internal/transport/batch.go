// Package transport is the batched collection plane between DeepFlow
// agents and the server (paper §3.4: agents ship compact int-tagged rows to
// a server ingesting ~2·10⁵ rows/s/node). It is the one agent→server seam:
// a flush-window Batch envelope, a compact binary wire codec whose size is
// measurable in bytes (so smart encoding's "agents send only ints" claim
// shows up on the wire, not just in storage), and a bounded queue
// with backpressure waits and counted — never silent — drops feeding the
// server's parallel ingest shards.
package transport

import (
	"time"

	"deepflow/internal/profiling"
	"deepflow/internal/trace"
)

// FlowSample is one interval's network metrics for a flow at a capture
// point, exported to the metrics plane for tag-based correlation (§3.4).
// It lives here because it is a wire row; internal/agent aliases it.
type FlowSample struct {
	TS    time.Time
	Host  string
	NIC   string
	Tuple trace.FiveTuple // canonical
	Delta trace.NetMetrics

	// KernelPackets/KernelBytes are scraped from the in-kernel
	// flow-statistics map (aggregated by the eBPF plane, not per-event).
	KernelPackets uint64
	KernelBytes   uint64
}

// Batch is one flush window's output from one agent: every span, flow
// sample, and profile sample accumulated since the previous flush, shipped
// as a single wire message.
type Batch struct {
	Host string // emitting agent's host
	Seq  uint64 // per-agent batch sequence number (gap = lost batch)

	Spans    []*trace.Span
	Flows    []FlowSample
	Profiles []profiling.Sample
}

// Empty reports whether the batch carries no rows.
func (b *Batch) Empty() bool {
	return len(b.Spans) == 0 && len(b.Flows) == 0 && len(b.Profiles) == 0
}

// Rows returns the total row count across all three planes.
func (b *Batch) Rows() int { return len(b.Spans) + len(b.Flows) + len(b.Profiles) }

// Reset clears the row slices, keeping capacity and identity for reuse as
// the agent's accumulation buffer.
func (b *Batch) Reset() {
	b.Spans = b.Spans[:0]
	b.Flows = b.Flows[:0]
	b.Profiles = b.Profiles[:0]
}
