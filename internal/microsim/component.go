package microsim

import (
	"fmt"
	"time"

	"deepflow/internal/otelsdk"
	"deepflow/internal/protocols"
	"deepflow/internal/sim"
	"deepflow/internal/simkernel"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
)

// CallSpec is one downstream call a component makes while serving a
// request. Calls execute sequentially, as in a blocking handler.
type CallSpec struct {
	Target   string
	Method   string
	Resource string
	Body     int
}

// Config describes a component.
type Config struct {
	Name    string
	Host    *simnet.Host
	Port    uint16
	Proto   trace.L7Proto
	Workers int

	// ServiceTime runs before downstream calls, PostTime after them.
	ServiceTime sim.Dist
	PostTime    sim.Dist

	Calls    []CallSpec
	RespBody int

	// Instrument, when non-nil, makes the component emit explicit spans
	// through the intrusive SDK (it is "open source and instrumented").
	// Nil components are closed-source from the baseline's perspective
	// but still fully visible to DeepFlow.
	Instrument *otelsdk.SDK

	// TLS encrypts this component's server side; clients of it encrypt
	// too. Plaintext is only visible through uprobes.
	TLS bool

	// Coroutines gives the component a Go-style runtime: one kernel
	// thread, one coroutine per request (plus a child coroutine per
	// downstream call).
	Coroutines bool

	// CrossThread makes the component read requests on one thread but
	// issue downstream calls and the response from another (an
	// Nginx/Envoy-style event loop), breaking thread-based association.
	CrossThread bool

	// GenXRequestID makes the component generate an X-Request-ID when the
	// incoming request has none (reverse proxies).
	GenXRequestID bool

	// FailOnCallError propagates a downstream failure as this component's
	// own error response instead of continuing the call sequence.
	FailOnCallError bool

	// FailFn, when set, can short-circuit a request with an error code
	// (fault injection for the §4.1 case studies).
	FailFn func(resource string) (int32, bool)

	// Queue mode (RabbitMQ-like, §4.1.3): requests enqueue work that
	// drains at DrainTime per message; when the backlog exceeds QueueCap
	// the connection is reset.
	QueueMode bool
	QueueCap  int
	DrainTime sim.Dist

	// ABIs selects the syscall profile (zero value = read/write).
	ABIs simkernel.ABIProfile
}

// Component is a running simulated microservice.
type Component struct {
	Config
	Env  *Env
	Proc *simkernel.Process

	listener *simnet.Listener
	workers  []*worker
	free     []*worker
	queue    []*simkernel.Socket
	pools    map[string][]*poolConn
	altTh    *simkernel.Thread
	connOf   map[*simkernel.Socket]*simnet.Conn
	backlog  int
	xridSeq  int

	// Hot-loop fault injection (the profiling plane's application-class
	// fault): extra CPU burned per request under a dedicated stack frame.
	hotLoop  sim.Dist
	hotFrame string

	// Slow-tail fault injection (the latency-regression detector's
	// application-class fault): every Nth request takes a deterministic
	// slow path, inflating the bucket max while leaving the mean nearly
	// untouched.
	slowEvery int
	slowExtra time.Duration
	slowSeen  int

	// Stats.
	Handled uint64
	Errors  uint64
	Resets  uint64
}

// SetHotLoop injects an extra CPU-burning loop into every request handled by
// this component; frame names the loop in sampled stacks (defaults to
// "<name>.handle.hotloop"). Used by faults.InjectCPUHog.
func (c *Component) SetHotLoop(extra sim.Dist, frame string) {
	if frame == "" {
		frame = c.Name + ".handle.hotloop"
	}
	c.hotLoop, c.hotFrame = extra, frame
}

// SetSlowTail makes every `every`-th request handled by this component burn
// `extra` additional service time — a deterministic slow path (cold cache,
// lock convoy, slow shard) that shifts the tail without moving the mean.
// Used by faults.InjectSlowTail; every <= 0 disables.
func (c *Component) SetSlowTail(every int, extra time.Duration) {
	c.slowEvery, c.slowExtra = every, extra
	c.slowSeen = 0
}

// slowTailExtra returns the extra service time the current request owes to
// the slow-tail fault, advancing the deterministic request counter.
func (c *Component) slowTailExtra() time.Duration {
	if c.slowEvery <= 0 {
		return 0
	}
	c.slowSeen++
	if c.slowSeen%c.slowEvery == 0 {
		return c.slowExtra
	}
	return 0
}

// burn models the request spending d on CPU with a call stack of
// component.behaviour.step frames, visible to the profiling plane's
// perf-event sampler, then continues with done. The carrier thread is
// switched to the request's coroutine first (as send/read do), and the
// kernel slice captures that coroutine for sample attribution.
func (c *Component) burn(req *request, behaviour, step string, d time.Duration, done func()) {
	req.th.CurrentCoroutine = req.coro
	frames := []string{
		c.Name + ".request",
		c.Name + "." + behaviour,
		c.Name + "." + behaviour + "." + step,
	}
	c.Host.Kernel.RunOnCPU(req.th, frames, d, done)
}

// burnHot runs the injected hot loop (if any) before done.
func (c *Component) burnHot(req *request, done func()) {
	if c.hotLoop == nil {
		done()
		return
	}
	req.th.CurrentCoroutine = req.coro
	frames := []string{c.Name + ".request", c.Name + ".handle", c.hotFrame}
	c.Host.Kernel.RunOnCPU(req.th, frames, c.hotLoop.Sample(c.Env.Eng.Rand()), done)
}

type worker struct {
	th   *simkernel.Thread
	busy bool
}

type poolConn struct {
	sock   *simkernel.Socket
	conn   *simnet.Conn
	stream uint64
	dead   bool
}

// request tracks one in-flight served request.
type request struct {
	w    *worker
	th   *simkernel.Thread
	coro uint64
	sock *simkernel.Socket
	msg  protocols.Message
	xrid string

	// fwdHeaders are incoming propagation headers an uninstrumented
	// component passes through unchanged (as Envoy/Nginx forward
	// tracing headers they did not create).
	fwdHeaders map[string]string

	serverSpan *otelsdk.ActiveSpan
	callCtx    otelsdk.SpanContext
}

// NewComponent creates, registers, and starts listening.
func NewComponent(env *Env, cfg Config) (*Component, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Proto == 0 {
		cfg.Proto = trace.L7HTTP
	}
	if cfg.ServiceTime == nil {
		cfg.ServiceTime = sim.Const{D: time.Millisecond}
	}
	if cfg.PostTime == nil {
		cfg.PostTime = sim.Const{D: 0}
	}
	if cfg.ABIs == (simkernel.ABIProfile{}) {
		cfg.ABIs = simkernel.DefaultABIProfile
	}
	c := &Component{
		Config: cfg,
		Env:    env,
		pools:  make(map[string][]*poolConn),
		connOf: make(map[*simkernel.Socket]*simnet.Conn),
	}
	c.Proc = cfg.Host.Kernel.NewProcess(cfg.Name)
	if cfg.Coroutines {
		// One kernel thread; workers are coroutine slots.
		th := c.Proc.Threads()[0]
		for i := 0; i < cfg.Workers; i++ {
			c.workers = append(c.workers, &worker{th: th})
		}
	} else {
		c.workers = append(c.workers, &worker{th: c.Proc.Threads()[0]})
		for i := 1; i < cfg.Workers; i++ {
			c.workers = append(c.workers, &worker{th: c.Proc.NewThread()})
		}
	}
	c.free = append(c.free, c.workers...)
	if cfg.CrossThread {
		c.altTh = c.Proc.NewThread()
	}
	l, err := env.Net.Listen(cfg.Host, cfg.Port, c.Proc, cfg.ABIs, c.accept)
	if err != nil {
		return nil, err
	}
	c.listener = l
	env.register(c)
	return c, nil
}

// Down simulates a pod crash or restart window: the listener closes and
// every open connection is reset (computing-infra failure class).
func (c *Component) Down() {
	if c.listener != nil {
		c.Env.Net.CloseListener(c.listener)
		c.listener = nil
	}
	for _, conn := range c.connOf {
		conn.Reset(true)
	}
}

// Up restores a downed component's listener.
func (c *Component) Up() error {
	if c.listener != nil {
		return nil
	}
	l, err := c.Env.Net.Listen(c.Host, c.Port, c.Proc, c.ABIs, c.accept)
	if err != nil {
		return err
	}
	c.listener = l
	return nil
}

// MustComponent is NewComponent that panics on error.
func MustComponent(env *Env, cfg Config) *Component {
	c, err := NewComponent(env, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Component) accept(sock *simkernel.Socket, conn *simnet.Conn) {
	c.connOf[sock] = conn
	sock.OnReadable = func() {
		c.queue = append(c.queue, sock)
		c.dispatch()
	}
}

// dispatch hands readable sockets to free workers.
func (c *Component) dispatch() {
	for len(c.free) > 0 && len(c.queue) > 0 {
		w := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		sock := c.queue[0]
		c.queue = c.queue[1:]
		w.busy = true
		req := &request{w: w, th: w.th, sock: sock}
		if c.Coroutines {
			req.coro = c.Proc.SpawnCoroutine(0)
		}
		c.read(req, sock, func(d simkernel.Delivered) {
			if d.Err != nil || len(d.Payload) == 0 {
				c.releaseWorker(w)
				return
			}
			c.handle(req, d.Payload)
		})
	}
}

func (c *Component) releaseWorker(w *worker) {
	w.busy = false
	c.free = append(c.free, w)
	c.dispatch()
}

// send and read route syscalls through the request's thread, maintaining
// the coroutine context for the kernel's program-information capture.
func (c *Component) send(req *request, sock *simkernel.Socket, payload []byte, done func(int, error)) {
	req.th.CurrentCoroutine = req.coro
	c.Host.Kernel.Send(req.th, sock, payload, done)
}

func (c *Component) read(req *request, sock *simkernel.Socket, cont func(simkernel.Delivered)) {
	req.th.CurrentCoroutine = req.coro
	c.Host.Kernel.Read(req.th, sock, cont)
}

// handle processes one parsed request through the component's behaviour:
// optional TLS unwrap, instrumentation, fault injection, queue mode,
// service time, downstream calls, and the response.
func (c *Component) handle(req *request, payload []byte) {
	if c.TLS {
		plain := tlsUnwrap(payload)
		if plain == nil {
			c.releaseWorker(req.w)
			return
		}
		c.Host.Kernel.InvokeUserFunc(req.th, "ssl_read", req.sock, trace.DirIngress, plain)
		payload = plain
	}
	codec := protocols.Default().Lookup(c.Proto).Codec
	msg, err := codec.Parse(payload)
	if err != nil || msg.Type != trace.MsgRequest {
		c.releaseWorker(req.w)
		return
	}
	req.msg = msg
	for _, key := range []string{"traceparent", "b3"} {
		if v := msg.Header(key); v != "" {
			if req.fwdHeaders == nil {
				req.fwdHeaders = map[string]string{}
			}
			req.fwdHeaders[key] = v
		}
	}
	req.xrid = msg.Header("x-request-id")
	if req.xrid == "" && c.GenXRequestID {
		c.xridSeq++
		req.xrid = fmt.Sprintf("%s-%06d", c.Name, c.xridSeq)
	}
	c.Handled++

	instr := time.Duration(0)
	if c.Instrument != nil {
		parent := c.Instrument.Extract(msg.Headers)
		req.serverSpan = c.Instrument.StartSpan(parent, "server", c.Name, msg.Resource,
			c.Host.Name, c.Name, c.Env.Eng.Now())
		req.callCtx = req.serverSpan.Context()
		instr = c.Instrument.PerSpanCost
	}

	// Cross-thread components continue on the event-loop thread.
	if c.CrossThread {
		req.th = c.altTh
	}

	if c.QueueMode {
		c.handleQueued(req, instr)
		return
	}

	if c.FailFn != nil {
		if code, hit := c.FailFn(msg.Resource); hit {
			c.Errors++
			c.burn(req, "handle", "fail", c.ServiceTime.Sample(c.Env.Eng.Rand())+instr, func() {
				c.respond(req, code)
			})
			return
		}
	}

	c.burn(req, "handle", "service", c.ServiceTime.Sample(c.Env.Eng.Rand())+instr+c.slowTailExtra(), func() {
		c.burnHot(req, func() { c.doCall(req, 0) })
	})
}

// handleQueued implements the RabbitMQ-style backlog behaviour.
func (c *Component) handleQueued(req *request, instr time.Duration) {
	if c.QueueCap > 0 && c.backlog >= c.QueueCap {
		// Queue overload: reset the connection (§4.1.3's failure mode).
		c.Resets++
		if conn := c.connOf[req.sock]; conn != nil {
			conn.Reset(true)
		}
		c.releaseWorker(req.w)
		return
	}
	c.backlog++
	drain := c.DrainTime
	if drain == nil {
		drain = c.ServiceTime
	}
	c.Env.Eng.After(drain.Sample(c.Env.Eng.Rand()), func() {
		if c.backlog > 0 {
			c.backlog--
		}
	})
	c.burn(req, "queue", "service", c.ServiceTime.Sample(c.Env.Eng.Rand())+instr, func() {
		c.respond(req, okCode(c.Proto))
	})
}

// Backlog exposes the queue depth (for the §4.1.3 experiment).
func (c *Component) Backlog() int { return c.backlog }

// doCall issues the i-th downstream call, then recurses.
func (c *Component) doCall(req *request, i int) {
	if i >= len(c.Calls) {
		c.burn(req, "handle", "post", c.PostTime.Sample(c.Env.Eng.Rand()), func() {
			c.respond(req, okCode(c.Proto))
		})
		return
	}
	spec := c.Calls[i]
	target := c.Env.Component(spec.Target)
	if target == nil {
		panic(fmt.Sprintf("microsim: %s calls unknown component %q", c.Name, spec.Target))
	}

	c.acquire(req, target, func(pc *poolConn, err error) {
		if err != nil {
			c.Errors++
			c.respond(req, errorCode(c.Proto))
			return
		}
		// Child coroutine for the call, exercising pseudo-thread roots.
		parentCoro := req.coro
		if c.Coroutines {
			req.coro = c.Proc.SpawnCoroutine(parentCoro)
		}
		pc.stream++
		headers := map[string]string{}
		for k, v := range req.fwdHeaders {
			headers[k] = v
		}
		if req.xrid != "" {
			headers["x-request-id"] = req.xrid
		}
		var clientSpan *otelsdk.ActiveSpan
		instr := time.Duration(0)
		if c.Instrument != nil {
			clientSpan = c.Instrument.StartSpan(req.callCtx, "client", spec.Target,
				spec.Resource, c.Host.Name, c.Name, c.Env.Eng.Now())
			c.Instrument.Inject(clientSpan.Context(), headers)
			instr = c.Instrument.PerSpanCost
		}
		_ = instr // per-span cost applied on the server side of the pair

		payload := encodeRequest(target.Proto, spec.Method, spec.Resource, headers, spec.Body, pc.stream)
		if target.TLS {
			c.Host.Kernel.InvokeUserFunc(req.th, "ssl_write", pc.sock, trace.DirEgress, payload)
			payload = tlsWrap(payload)
		}
		c.send(req, pc.sock, payload, nil)
		c.read(req, pc.sock, func(d simkernel.Delivered) {
			code, status := okCode(target.Proto), "ok"
			if d.Err != nil {
				pc.dead = true
				c.Errors++
				code, status = errorCode(c.Proto), "error"
			} else {
				resp := d.Payload
				if target.TLS {
					resp = tlsUnwrap(resp)
					c.Host.Kernel.InvokeUserFunc(req.th, "ssl_read", pc.sock, trace.DirIngress, resp)
				}
				if m, err := protocols.Default().Lookup(target.Proto).Codec.Parse(resp); err == nil {
					code, status = m.Code, m.Status
				}
			}
			if clientSpan != nil {
				clientSpan.Finish(c.Env.Eng.Now(), code, status)
			}
			c.release(spec.Target, pc)
			req.coro = parentCoro
			if status == "error" && c.FailOnCallError {
				c.respond(req, errorCode(c.Proto))
				return
			}
			c.doCall(req, i+1)
		})
	})
}

// respond sends the response and frees the worker.
func (c *Component) respond(req *request, code int32) {
	headers := map[string]string{}
	if req.xrid != "" {
		headers["x-request-id"] = req.xrid
	}
	payload := encodeResponse(c.Proto, req.msg, code, headers, c.RespBody)
	if c.TLS {
		c.Host.Kernel.InvokeUserFunc(req.th, "ssl_write", req.sock, trace.DirEgress, payload)
		payload = tlsWrap(payload)
	}
	c.send(req, req.sock, payload, func(int, error) {
		if req.serverSpan != nil {
			status := "ok"
			if !isOKCode(c.Proto, code) {
				status = "error"
			}
			req.serverSpan.Finish(c.Env.Eng.Now(), code, status)
		}
		c.releaseWorker(req.w)
	})
}

// acquire obtains a pooled connection to target, dialing when none idle.
func (c *Component) acquire(req *request, target *Component, cont func(*poolConn, error)) {
	idle := c.pools[target.Name]
	for len(idle) > 0 {
		pc := idle[len(idle)-1]
		idle = idle[:len(idle)-1]
		c.pools[target.Name] = idle
		if pc.dead || pc.conn.Closed() {
			continue
		}
		cont(pc, nil)
		return
	}
	req.th.CurrentCoroutine = req.coro
	c.Env.Net.Dial(c.Host, c.Proc, c.ABIs, target.Host.IP, target.Port, func(sock *simkernel.Socket, conn *simnet.Conn, err error) {
		if err != nil {
			cont(nil, err)
			return
		}
		cont(&poolConn{sock: sock, conn: conn}, nil)
	})
}

func (c *Component) release(target string, pc *poolConn) {
	if pc.dead || pc.conn.Closed() {
		return
	}
	c.pools[target] = append(c.pools[target], pc)
}

// errorCode is the protocol's generic server-error code.
func errorCode(proto trace.L7Proto) int32 {
	switch proto {
	case trace.L7HTTP, trace.L7HTTP2:
		return 503
	case trace.L7Dubbo:
		return 50
	case trace.L7GRPC:
		return protocols.GRPCStatusInternal
	case trace.L7AMQP:
		return 541 // internal-error reply code
	default:
		return 1
	}
}
