package microsim

import (
	"time"

	"deepflow/internal/k8s"
	"deepflow/internal/otelsdk"
	"deepflow/internal/sim"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
)

// Topology bundles a built workload: its cluster, components, and the host
// the load generator should run from.
type Topology struct {
	Env        *Env
	Cluster    *k8s.Cluster
	Entry      *Component
	ClientHost *simnet.Host
	Components []*Component
}

// newThreeNodeCluster builds the paper's testbed shape: a three-node
// Kubernetes cluster across two physical machines.
func newThreeNodeCluster(env *Env, name string) *k8s.Cluster {
	cluster := k8s.NewCluster(name, env.Net)
	m1 := env.Net.AddHost(name+"-machine-1", kindMachine, nil)
	m2 := env.Net.AddHost(name+"-machine-2", kindMachine, nil)
	cluster.AddNode(name+"-node-1", m1)
	cluster.AddNode(name+"-node-2", m1)
	cluster.AddNode(name+"-node-3", m2)
	return cluster
}

// BuildSpringBootDemo reproduces the Fig. 16(a) workload: a Spring Boot
// style chain of two instrumentable Java-like services in front of a
// closed-source MySQL database. sdk (e.g. a Jaeger-like SDK) instruments
// the two services when non-nil; the database is never instrumentable.
func BuildSpringBootDemo(env *Env, sdk *otelsdk.SDK) *Topology {
	cluster := newThreeNodeCluster(env, "sb")
	nodes := cluster.Nodes()
	client, _ := cluster.AddPod("sb-load", "default", "load", nodes[0], nil)
	frontPod, _ := cluster.AddPod("sb-front-0", "default", "front", nodes[0], map[string]string{"app": "front"})
	backPod, _ := cluster.AddPod("sb-backend-0", "default", "backend", nodes[1], map[string]string{"app": "backend"})
	dbPod, _ := cluster.AddPod("sb-mysql-0", "default", "mysql", nodes[2], nil)

	db := MustComponent(env, Config{
		Name: "sb-mysql", Host: dbPod.Host, Port: 3306,
		Proto: trace.L7MySQL, Workers: 8,
		ServiceTime: sim.Exponential{M: 300 * time.Microsecond},
		RespBody:    128,
	})
	backend := MustComponent(env, Config{
		Name: "sb-backend", Host: backPod.Host, Port: 8081,
		Proto: trace.L7HTTP, Workers: 8,
		ServiceTime: sim.Exponential{M: 500 * time.Microsecond},
		Calls: []CallSpec{
			{Target: "sb-mysql", Resource: "SELECT * FROM items WHERE id = ?"},
		},
		RespBody:   512,
		Instrument: sdk,
	})
	front := MustComponent(env, Config{
		Name: "sb-front", Host: frontPod.Host, Port: 8080,
		Proto: trace.L7HTTP, Workers: 8,
		ServiceTime: sim.Exponential{M: 400 * time.Microsecond},
		Calls: []CallSpec{
			{Target: "sb-backend", Method: "GET", Resource: "/api/items"},
		},
		RespBody:   1024,
		Instrument: sdk,
	})
	return &Topology{
		Env: env, Cluster: cluster, Entry: front, ClientHost: client.Host,
		Components: []*Component{front, backend, db},
	}
}

// BuildBookinfo reproduces the Fig. 16(b) workload: the Istio Bookinfo
// application — productpage fanning out to details and reviews, reviews
// calling ratings — with an Envoy-style sidecar proxy in front of every
// service pod (cross-thread, X-Request-ID generating). sdk (a Zipkin-like
// SDK) instruments productpage and reviews when non-nil; sidecars and
// ratings/details stay uninstrumented.
func BuildBookinfo(env *Env, sdk *otelsdk.SDK) *Topology {
	cluster := newThreeNodeCluster(env, "bi")
	nodes := cluster.Nodes()
	client, _ := cluster.AddPod("bi-load", "default", "load", nodes[0], nil)

	type svc struct {
		name    string
		node    int
		port    uint16
		service time.Duration
		calls   []CallSpec
		instr   *otelsdk.SDK
		workers int
	}
	// Each service gets a sidecar "<name>-envoy" that proxies to it.
	services := []svc{
		{name: "ratings", node: 2, port: 9080, service: 300 * time.Microsecond, workers: 4},
		{name: "details", node: 1, port: 9080, service: 300 * time.Microsecond, workers: 4},
		{name: "reviews", node: 1, port: 9080, service: 600 * time.Microsecond, workers: 8,
			calls: []CallSpec{{Target: "ratings-envoy", Method: "GET", Resource: "/ratings/0"}}, instr: sdk},
		{name: "productpage", node: 0, port: 9080, service: 800 * time.Microsecond, workers: 8,
			calls: []CallSpec{
				{Target: "details-envoy", Method: "GET", Resource: "/details/0"},
				{Target: "reviews-envoy", Method: "GET", Resource: "/reviews/0"},
			}, instr: sdk},
	}

	var comps []*Component
	for _, s := range services {
		pod, _ := cluster.AddPod("bi-"+s.name+"-0", "default", s.name, nodes[s.node],
			map[string]string{"app": s.name, "version": "v1"})
		app := MustComponent(env, Config{
			Name: s.name, Host: pod.Host, Port: s.port,
			Proto: trace.L7HTTP, Workers: s.workers,
			ServiceTime: sim.Exponential{M: s.service},
			Calls:       s.calls,
			RespBody:    700,
			Instrument:  s.instr,
			Coroutines:  s.name == "ratings", // ratings is a Go service
		})
		sidecarPod, _ := cluster.AddPod("bi-"+s.name+"-envoy", "default", s.name, nodes[s.node],
			map[string]string{"app": s.name, "sidecar": "envoy"})
		sidecar := MustComponent(env, Config{
			Name: s.name + "-envoy", Host: sidecarPod.Host, Port: 15001,
			Proto: trace.L7HTTP, Workers: s.workers,
			ServiceTime:     sim.Const{D: 60 * time.Microsecond},
			Calls:           []CallSpec{{Target: s.name, Method: "GET", Resource: "/" + s.name}},
			RespBody:        700,
			CrossThread:     true,
			GenXRequestID:   true,
			FailOnCallError: true,
		})
		comps = append(comps, app, sidecar)
	}

	entry := env.Component("productpage-envoy")
	return &Topology{
		Env: env, Cluster: cluster, Entry: entry, ClientHost: client.Host,
		Components: comps,
	}
}

// BuildNginx reproduces the Appendix B workload: a single VM running an
// Nginx server handling static requests, loaded by a wrk2-style generator
// (the paper's strictest case: ~1 ms of real work per request, so
// instrumentation overhead is maximally visible).
func BuildNginx(env *Env) (*Topology, *Component) {
	cluster := k8s.NewCluster("ng", env.Net)
	// A single VM runs both wrk2 and Nginx, as in the paper's Appendix B
	// testbed — so the generator's syscalls are instrumented too.
	vm := env.Net.AddHost("ng-vm", kindNode, nil)
	clientHost := vm

	nginx := MustComponent(env, Config{
		Name: "nginx", Host: vm, Port: 80,
		Proto: trace.L7HTTP, Workers: 8,
		ServiceTime:   sim.Exponential{M: 150 * time.Microsecond},
		RespBody:      600,
		CrossThread:   true,
		GenXRequestID: true,
	})
	return &Topology{
		Env: env, Cluster: cluster, Entry: nginx, ClientHost: clientHost,
		Components: []*Component{nginx},
	}, nginx
}

// BuildPolyglot builds a polyglot microservice chain exercising four
// protocols end to end: an HTTP gateway fronting a gRPC
// cart service that reads a PostgreSQL database and publishes audit events
// to an AMQP broker. Every hop speaks a different protocol, so one request
// through the gateway lights up four protocol decoders at once.
func BuildPolyglot(env *Env) *Topology {
	cluster := newThreeNodeCluster(env, "pg")
	nodes := cluster.Nodes()
	client, _ := cluster.AddPod("pg-load", "default", "load", nodes[0], nil)
	gwPod, _ := cluster.AddPod("pg-gateway-0", "default", "gateway", nodes[0],
		map[string]string{"app": "gateway"})
	cartPod, _ := cluster.AddPod("pg-cart-0", "default", "cart", nodes[1],
		map[string]string{"app": "cart"})
	dbPod, _ := cluster.AddPod("pg-postgres-0", "default", "postgres", nodes[2], nil)
	mqPod, _ := cluster.AddPod("pg-rabbitmq-0", "default", "rabbitmq", nodes[2], nil)

	db := MustComponent(env, Config{
		Name: "pg-postgres", Host: dbPod.Host, Port: 5432,
		Proto: trace.L7Postgres, Workers: 8,
		ServiceTime: sim.Exponential{M: 300 * time.Microsecond},
		RespBody:    256,
	})
	broker := MustComponent(env, Config{
		Name: "pg-rabbitmq", Host: mqPod.Host, Port: 5672,
		Proto: trace.L7AMQP, Workers: 8,
		ServiceTime: sim.Exponential{M: 150 * time.Microsecond},
	})
	cart := MustComponent(env, Config{
		Name: "pg-cart", Host: cartPod.Host, Port: 9555,
		Proto: trace.L7GRPC, Workers: 8, Coroutines: true,
		ServiceTime: sim.Exponential{M: 400 * time.Microsecond},
		Calls: []CallSpec{
			{Target: "pg-postgres", Resource: "SELECT sku, qty FROM cart_items WHERE user_id = $1"},
			{Target: "pg-rabbitmq", Resource: "cart.viewed"},
		},
		RespBody: 384,
	})
	gateway := MustComponent(env, Config{
		Name: "pg-gateway", Host: gwPod.Host, Port: 8080,
		Proto: trace.L7HTTP, Workers: 8,
		ServiceTime: sim.Exponential{M: 200 * time.Microsecond},
		Calls: []CallSpec{
			{Target: "pg-cart", Resource: "/cart.Cart/GetCart"},
		},
		RespBody:      1024,
		GenXRequestID: true,
	})
	return &Topology{
		Env: env, Cluster: cluster, Entry: gateway, ClientHost: client.Host,
		Components: []*Component{gateway, cart, db, broker},
	}
}

// Host kind aliases for readability.
const (
	kindMachine = simnet.KindMachine
	kindNode    = simnet.KindNode
)
