package agent

import (
	"deepflow/internal/profiling"
	"deepflow/internal/selfmon"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// batchShipper buffers one flush window of output and ships it as one
// wire-encoded batch (the paper's collection plane: compact int-tagged
// rows, batched like a ClickHouse insert).
type batchShipper struct {
	sink Sink
	b    transport.Batch
	seq  uint64

	// Selfmon handles (nil until instrument wires them).
	shipped *selfmon.Counter
	bytes   *selfmon.Counter
	errors  *selfmon.Counter
}

func (bs *batchShipper) span(sp *trace.Span)         { bs.b.Spans = append(bs.b.Spans, sp) }
func (bs *batchShipper) flow(f transport.FlowSample) { bs.b.Flows = append(bs.b.Flows, f) }
func (bs *batchShipper) profile(ps profiling.Sample) { bs.b.Profiles = append(bs.b.Profiles, ps) }

// ship encodes and delivers anything buffered; host stamps the batch origin.
func (bs *batchShipper) ship(host string) {
	if bs.b.Empty() {
		return
	}
	bs.seq++
	bs.b.Host, bs.b.Seq = host, bs.seq
	data := transport.Encode(&bs.b)
	if err := bs.sink.IngestBatch(data); err != nil {
		if bs.errors != nil {
			bs.errors.Inc()
		}
	} else if bs.shipped != nil {
		bs.shipped.Inc()
		bs.bytes.Add(uint64(len(data)))
	}
	bs.b.Reset()
}
