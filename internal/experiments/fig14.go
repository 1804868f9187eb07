package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"deepflow/internal/k8s"
	"deepflow/internal/microsim"
	"deepflow/internal/server"
	"deepflow/internal/sim"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
)

// Fig14Row is one encoding's measured resource consumption.
type Fig14Row struct {
	Encoding  server.Encoding
	InsertNS  int64 // total CPU time spent inserting
	MemBytes  int
	DiskBytes int64
	// Relative to smart-encoding (the paper reports these ratios).
	CPURel, MemRel, DiskRel float64
}

// synthCluster builds a cluster with the given pod cardinality so tag
// dictionaries have production-like sizes.
func synthCluster(pods int) *k8s.Cluster {
	env := microsim.NewEnv(1)
	cluster := k8s.NewCluster("synth", env.Net)
	machine := env.Net.AddHost("m-0", simnet.KindMachine, nil)
	var nodeHosts []*simnet.Host
	for i := 0; i < 16; i++ {
		nodeHosts = append(nodeHosts, cluster.AddNode(fmt.Sprintf("node-%d", i), machine))
	}
	for i := 0; i < pods; i++ {
		cluster.AddPod(fmt.Sprintf("pod-%d-replica-%d", i%200, i), "production",
			fmt.Sprintf("service-%d", i%50), nodeHosts[i%len(nodeHosts)],
			map[string]string{"version": fmt.Sprintf("v%d", i%5)})
	}
	return cluster
}

// synthSpan generates one synthetic span whose tags reference a random pod.
func synthSpan(rng *rand.Rand, cluster *k8s.Cluster, pods []*k8s.Pod, i int) *trace.Span {
	pod := pods[rng.Intn(len(pods))]
	start := sim.Epoch.Add(time.Duration(i) * 50 * time.Microsecond)
	return &trace.Span{
		ID:             trace.SpanID(i + 1),
		SysTraceID:     trace.SysTraceID(rng.Uint64()),
		ReqTCPSeq:      rng.Uint32(),
		RespTCPSeq:     rng.Uint32(),
		XRequestID:     fmt.Sprintf("req-%08x", rng.Uint32()),
		Flow:           trace.FiveTuple{SrcIP: trace.IP(rng.Uint32()), DstIP: trace.IP(pod.IP), SrcPort: uint16(rng.Uint32()), DstPort: 80, Proto: trace.L4TCP},
		L7:             trace.L7HTTP,
		Source:         trace.SourceEBPF,
		TapSide:        trace.TapServerProcess,
		StartTime:      start,
		EndTime:        start.Add(2 * time.Millisecond),
		RequestType:    "GET",
		ResponseCode:   200,
		ResponseStatus: "ok",
		Resource:       trace.ResourceTags{IP: pod.IP},
	}
}

// MeasureEncodings inserts spanCount synthetic spans into three stores that
// differ only in tag encoding and reports the resources each used — the
// Fig. 14 experiment (paper: 10⁷ traces at 2·10⁵ rows/s into ClickHouse).
// It drives the bare span store (enrich + Insert, what an ingest shard does
// per span) rather than a server: the store is the only layer the encoding
// changes.
func MeasureEncodings(spanCount, podCardinality int) ([]Fig14Row, error) {
	cluster := synthCluster(podCardinality)
	reg := server.NewResourceRegistry([]*k8s.Cluster{cluster}, nil)
	pods := cluster.Pods()

	// Generate the corpus once; every store ingests identical spans.
	rng := rand.New(rand.NewSource(99))
	spans := make([]*trace.Span, spanCount)
	for i := range spans {
		spans[i] = synthSpan(rng, cluster, pods, i)
	}

	// The paper reports "up to 100 tags might be related to a single
	// trace": smart encoding stores 6 integer resource tags and derives
	// the rest at query time, while the baselines materialize all of them.
	const wideTags = 20
	encodings := []server.Encoding{server.EncodingSmart, server.EncodingDirect, server.EncodingLowCard}
	// Warm every code path (and grow the heap) before timing anything, so
	// the first-measured encoding does not absorb one-time costs.
	insert := func(st *server.SpanStore, sp *trace.Span) {
		sp.Resource = reg.Enrich(sp.Resource)
		st.Insert(sp)
	}
	for _, enc := range encodings {
		warm := server.NewSpanStoreWide(enc, reg, wideTags)
		for _, sp := range spans[:min(len(spans), 5000)] {
			insert(warm, sp.Clone())
		}
	}

	var rows []Fig14Row
	for _, enc := range encodings {
		st := server.NewSpanStoreWide(enc, reg, wideTags)
		runtime.GC()
		start := time.Now()
		for _, sp := range spans {
			insert(st, sp)
		}
		elapsed := time.Since(start)
		rows = append(rows, Fig14Row{
			Encoding:  enc,
			InsertNS:  elapsed.Nanoseconds(),
			MemBytes:  st.MemBytes(),
			DiskBytes: st.DiskBytes(),
		})
	}
	base := rows[0]
	for i := range rows {
		rows[i].CPURel = float64(rows[i].InsertNS) / float64(base.InsertNS)
		rows[i].MemRel = float64(rows[i].MemBytes) / float64(base.MemBytes)
		rows[i].DiskRel = float64(rows[i].DiskBytes) / float64(base.DiskBytes)
	}
	return rows, nil
}

// Fig14 runs the smart-encoding experiment and formats it.
func Fig14(spanCount, podCardinality int) (*Table, error) {
	rows, err := MeasureEncodings(spanCount, podCardinality)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig14",
		Title:   fmt.Sprintf("Trace storage resource consumption (%d spans, %d pods)", spanCount, podCardinality),
		Columns: []string{"encoding", "insert CPU (ms)", "memory (MB)", "disk (MB)", "CPU rel", "mem rel", "disk rel"},
		Notes: []string{
			"paper: direct = 4.31x CPU, 1.97x memory, 3.9x disk vs smart-encoding; low-cardinality = 7.79x CPU, 2.14x memory, 1.94x disk",
			"relative columns are vs smart-encoding (row 1); shapes to compare: smart < low-cardinality < direct on disk, smart lowest on CPU and memory",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Encoding.String(),
			fmt.Sprintf("%.1f", float64(r.InsertNS)/1e6),
			fmt.Sprintf("%.2f", float64(r.MemBytes)/1e6),
			fmt.Sprintf("%.2f", float64(r.DiskBytes)/1e6),
			r.CPURel, r.MemRel, r.DiskRel)
	}
	return t, nil
}
