// polyglot traces a chain where every hop speaks a different protocol —
// HTTP gateway → gRPC cart service → PostgreSQL database, with an AMQP
// audit event published per request — all in zero code. The newer codecs
// (gRPC, PostgreSQL, AMQP) register through the same self-describing
// parser table as the builtins, and because their responses carry status
// in fixed header fields, the agent resolves them on its lightweight fast
// path; the printed agent stats show the fast/slow split.
package main

import (
	"fmt"
	"log"
	"time"

	"deepflow"
	"deepflow/internal/k8s"
	"deepflow/internal/microsim"
	"deepflow/internal/sim"
	"deepflow/internal/trace"
)

func main() {
	env := deepflow.NewEnv(21)
	topo := microsim.BuildPolyglot(env)
	df := deepflow.New(env, []*k8s.Cluster{topo.Cluster}, nil, deepflow.DefaultOptions())
	if err := df.DeployAll(); err != nil {
		log.Fatal(err)
	}

	gen := microsim.NewLoadGen(env, "wrk", topo.ClientHost, topo.Entry, 8, 150)
	gen.Path = "/cart/42"
	gen.Start(2 * time.Second)
	env.Run(3 * time.Second)
	df.FlushAll()

	fmt.Printf("completed: %d requests through the gateway\n\n", gen.Completed)

	// The service map shows one edge per protocol hop.
	m := df.Server.ServiceMap(sim.Epoch, env.Eng.Now())
	fmt.Print(m.Text())

	// One trace crosses four protocols.
	for _, sp := range df.Server.SpanList(sim.Epoch, sim.Epoch.Add(time.Hour), 0) {
		if sp.ProcessName == "wrk" && sp.TapSide == trace.TapClientProcess && sp.ResponseStatus == "ok" {
			tr := df.TraceOf(sp.ID)
			protos := map[trace.L7Proto]int{}
			for _, s := range tr.Spans {
				protos[s.L7]++
			}
			fmt.Printf("\none request, %d spans, protocols crossed:\n", tr.Len())
			for _, p := range []trace.L7Proto{trace.L7HTTP, trace.L7GRPC, trace.L7Postgres, trace.L7AMQP} {
				fmt.Printf("  %-12s %d spans\n", p.String(), protos[p])
			}
			break
		}
	}

	// The agent parses each message once, after one inference per flow.
	_, parsed, giveups := df.AgentPathStats()
	fmt.Printf("\nagent pipeline: %d parsed messages, %d inference give-ups\n", parsed, giveups)
	fmt.Println("\nzero instrumentation in any service — the gateway, the gRPC cart,")
	fmt.Println("the database, and the broker are all traced from the kernel.")
}
