package experiments

import (
	"fmt"
	"time"

	"deepflow/internal/core"
	"deepflow/internal/k8s"
	"deepflow/internal/microsim"
	"deepflow/internal/server"
	"deepflow/internal/sim"
	"deepflow/internal/trace"
)

// The ablation experiments knock out the design choices DESIGN.md calls
// out — one implicit-association key at a time, and Algorithm 1's
// iteration bound — and measure the effect on trace completeness.

// AblationRow is one configuration's assembled-trace size.
type AblationRow struct {
	Config   string
	AvgSpans float64
	AvgDepth float64
	Traces   int
}

// assembleStats assembles traces for n request start spans under a mask
// and iteration bound.
func assembleStats(srv *server.Server, starts []trace.SpanID, iters int, mask server.AssocMask) (avgSpans, avgDepth float64) {
	if len(starts) == 0 {
		return 0, 0
	}
	var spans, depth int
	for _, id := range starts {
		tr := srv.Assemble(id, iters, mask)
		spans += tr.Len()
		depth += tr.Depth()
	}
	n := float64(len(starts))
	return float64(spans) / n, float64(depth) / n
}

// RunAssociationAblation runs a workload once under full DeepFlow, then
// re-assembles the same spans with each association key removed in turn.
func RunAssociationAblation(workload string) ([]AblationRow, error) {
	env := microsim.NewEnv(53)
	var topo *microsim.Topology
	if workload == "bookinfo" {
		topo = microsim.BuildBookinfo(env, nil)
	} else {
		topo = microsim.BuildSpringBootDemo(env, nil)
	}
	d := core.NewDeployment(env, []*k8s.Cluster{topo.Cluster}, nil, core.DefaultOptions())
	if err := d.DeployAll(); err != nil {
		return nil, err
	}
	gen := microsim.NewLoadGen(env, "wrk", topo.ClientHost, topo.Entry, 8, 50)
	if workload == "bookinfo" {
		gen.Path = "/productpage"
	}
	gen.Start(time.Second)
	env.Run(2 * time.Second)
	d.FlushAll()

	var starts []trace.SpanID
	for _, sp := range d.Server.SpanList(sim.Epoch, sim.Epoch.Add(time.Hour), 0) {
		if sp.ProcessName == "wrk" && sp.TapSide == trace.TapClientProcess && sp.ResponseStatus == "ok" {
			starts = append(starts, sp.ID)
			if len(starts) == 10 {
				break
			}
		}
	}
	if len(starts) == 0 {
		return nil, fmt.Errorf("ablation: no start spans")
	}

	configs := []struct {
		name string
		mask server.AssocMask
	}{
		{"all associations", server.AssocAll},
		{"without systrace", server.AssocAll &^ server.AssocSysTrace},
		{"without x-request-id", server.AssocAll &^ server.AssocXRequestID},
		{"without tcp-seq", server.AssocAll &^ server.AssocTCPSeq},
		{"without pseudo-thread", server.AssocAll &^ server.AssocPseudoThread},
		{"tcp-seq only", server.AssocTCPSeq},
	}
	var rows []AblationRow
	for _, cfg := range configs {
		spans, depth := assembleStats(d.Server, starts, server.DefaultIterations, cfg.mask)
		rows = append(rows, AblationRow{Config: workload + ": " + cfg.name, AvgSpans: spans, AvgDepth: depth, Traces: len(starts)})
	}
	return rows, nil
}

// RunIterationAblation sweeps Algorithm 1's iteration bound on the Spring
// Boot workload.
func RunIterationAblation() ([]AblationRow, error) {
	env := microsim.NewEnv(59)
	topo := microsim.BuildSpringBootDemo(env, nil)
	d := core.NewDeployment(env, []*k8s.Cluster{topo.Cluster}, nil, core.DefaultOptions())
	if err := d.DeployAll(); err != nil {
		return nil, err
	}
	gen := microsim.NewLoadGen(env, "wrk", topo.ClientHost, topo.Entry, 8, 50)
	gen.Start(time.Second)
	env.Run(2 * time.Second)
	d.FlushAll()

	var starts []trace.SpanID
	for _, sp := range d.Server.SpanList(sim.Epoch, sim.Epoch.Add(time.Hour), 0) {
		if sp.ProcessName == "wrk" && sp.TapSide == trace.TapClientProcess && sp.ResponseStatus == "ok" {
			starts = append(starts, sp.ID)
			if len(starts) == 10 {
				break
			}
		}
	}
	var rows []AblationRow
	for _, iters := range []int{1, 2, 3, 5, 10, server.DefaultIterations} {
		spans, depth := assembleStats(d.Server, starts, iters, server.AssocAll)
		rows = append(rows, AblationRow{
			Config: fmt.Sprintf("iterations=%d", iters), AvgSpans: spans, AvgDepth: depth, Traces: len(starts),
		})
	}
	return rows, nil
}

// Ablation formats both ablation studies.
func Ablation() (*Table, error) {
	t := &Table{
		ID:      "ablation",
		Title:   "Design-choice ablations: association keys per workload, and Algorithm 1 iterations",
		Columns: []string{"configuration", "avg spans/trace", "avg depth", "traces"},
		Notes: []string{
			"removing tcp-seq severs the network path and the client↔server link; removing x-request-id severs event-loop proxies; removing systrace severs intra-component nesting",
			"iteration sweep shows Algorithm 1 needs a handful of iterations to reach the fixed point on a 3-hop chain; the default of 30 is ample headroom",
		},
	}
	for _, workload := range []string{"springboot", "bookinfo"} {
		assoc, err := RunAssociationAblation(workload)
		if err != nil {
			return nil, err
		}
		for _, r := range assoc {
			t.AddRow(r.Config, r.AvgSpans, r.AvgDepth, r.Traces)
		}
	}
	iters, err := RunIterationAblation()
	if err != nil {
		return nil, err
	}
	for _, r := range iters {
		t.AddRow(r.Config, r.AvgSpans, r.AvgDepth, r.Traces)
	}
	return t, nil
}
