package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/circuit"
	"repro/internal/suite"
	"repro/synth/serve"
	"repro/synth/serve/client"
	"repro/synth/trace"
)

// serve-mix parameters.
const (
	serveRate        = 40.0 // requests per second, open loop
	serveCompileFrac = 0.8  // the rest are synthesize batches
	serveZipfS       = 1.1
	serveMaxRaw      = 100 // pool: suite circuits with ≤ 100 raw rotations
	serveBatch       = 16  // rotations per synthesize request
	serveCompileEps  = 1e-2
	serveCompileOpt  = 2
	serveSynthEps    = 1e-3
	serveConns       = 2
	serveWarmup      = 200 // untimed requests drawn for the warm-up
	// serveSetupRepeats is lower than the compile workloads' count because
	// one serve-mix set-up (server start plus warm-up) takes seconds.
	serveSetupRepeats = 3
	serveTimeout      = 60 * time.Second
	// serveWindow bounds the requests in flight; at 40 rps and ~10 ms
	// service the window is never full unless the server stalls.
	serveWindow = 256
)

// request is one generated request: a compile of pool circuit item, or a
// synthesize batch of angle-pool indices.
type request struct {
	compile bool
	item    int
	batch   []int
}

// servePool is the seed-independent request material.
type servePool struct {
	circuits []input
	angles   []circuit.Op
}

func newServePool() (*servePool, error) {
	band := rotationBand(suite.Suite(), 0, serveMaxRaw)
	// Popularity ranks are a fixed permutation, so which circuits are hot
	// does not depend on the run's seed.
	ranked := shuffled(band, newRand(fixedDrawSeed, 3))
	ins, err := render(ranked)
	if err != nil {
		return nil, err
	}
	p := &servePool{circuits: ins}
	seen := map[[4]float64]bool{}
	for _, in := range ins {
		for _, op := range in.circ.Ops {
			k := [4]float64{float64(op.G), op.P[0], op.P[1], op.P[2]}
			if op.G.IsRotation() && !seen[k] && isNontrivial(op) {
				seen[k] = true
				p.angles = append(p.angles, circuit.Op{G: op.G, Q: [2]int{0, -1}, P: op.P})
			}
		}
	}
	return p, nil
}

func isNontrivial(op circuit.Op) bool {
	c := circuit.New(1)
	c.Add(circuit.Op{G: op.G, Q: [2]int{0, -1}, P: op.P})
	return c.CountRotations() == 1
}

// stream lists n requests: the Zipf expectation of compiles over the
// circuit ranks and of batch rotations over the angle ranks, in an order
// and batching drawn from r.
func (p *servePool) stream(n int, r *rand.Rand) []request {
	nc := int(math.Round(float64(n) * serveCompileFrac))
	ns := n - nc
	items := expand(zipfCounts(len(p.circuits), nc, serveZipfS))
	rots := expand(zipfCounts(len(p.angles), ns*serveBatch, serveZipfS))
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	r.Shuffle(len(rots), func(i, j int) { rots[i], rots[j] = rots[j], rots[i] })
	out := make([]request, 0, n)
	for _, it := range items {
		out = append(out, request{compile: true, item: it})
	}
	for i := range ns {
		out = append(out, request{batch: rots[i*serveBatch : (i+1)*serveBatch]})
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// response is what one request returned.
type response struct {
	compile *serve.CompileResponse
	synth   *serve.SynthesizeResponse
	err     error
}

// server is one in-process synthesis service on a loopback listener.
type server struct {
	srv    *serve.Server
	http   *http.Server
	done   chan error
	client *client.Client
	tr     *http.Transport
}

func startServer(tracer *trace.Tracer) (*server, error) {
	srv := serve.New(serve.Config{DefaultBackend: "gridsynth", Tracer: tracer})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	s.tr = &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	s.client = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: s.tr}))
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.tr.CloseIdleConnections()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (p *servePool) send(ctx context.Context, c *client.Client, rq request) response {
	ctx, cancel := context.WithTimeout(ctx, serveTimeout)
	defer cancel()
	if rq.compile {
		res, err := c.Compile(ctx, serve.CompileRequest{
			QASM: p.circuits[rq.item].qasm, Eps: serveCompileEps, IR: "rz", OptLevel: serveCompileOpt,
		})
		return response{compile: res, err: err}
	}
	rots := make([]serve.Rotation, len(rq.batch))
	for i, a := range rq.batch {
		op := p.angles[a]
		rots[i] = serve.Rotation{Gate: op.G.String(), Params: op.P}
	}
	res, err := c.Synthesize(ctx, serve.SynthesizeRequest{Rotations: rots, Eps: serveSynthEps})
	return response{synth: res, err: err}
}

// warm sends reqs closed-loop over serveConns senders and fails on the
// first error: set-up must leave a healthy, warm server.
func (p *servePool) warm(c *client.Client, reqs []request) error {
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	for w := range serveConns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += serveConns {
				if r := p.send(context.Background(), c, reqs[i]); r.err != nil {
					errs[w] = fmt.Errorf("warm-up request %d: %w", i, r.err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// serveSetup is a started, warmed server plus the timed stream.
type serveSetup struct {
	pool   *servePool
	srv    *server
	timed  []request
	due    []time.Duration
	tracer *trace.Tracer
}

func setUpServe(e *env) (*serveSetup, error) {
	pool, err := newServePool()
	if err != nil {
		return nil, err
	}
	r := newRand(e.seed, 4)
	n := int(math.Round(serveRate * e.seconds))
	st := &serveSetup{pool: pool, timed: pool.stream(n, r)}
	// Every circuit the timed stream compiles is compiled once here, so no
	// timed compile synthesizes: a cold compile of a rarely requested
	// circuit would put engine time into the tail that this workload is
	// meant to keep out. A draw from the same distribution follows; the
	// rotations it does not warm stay for the timed batches to synthesize.
	var warmup []request
	seen := map[int]bool{}
	for _, rq := range st.timed {
		if rq.compile && !seen[rq.item] {
			seen[rq.item] = true
			warmup = append(warmup, rq)
		}
	}
	warmup = append(warmup, pool.stream(serveWarmup, r)...)
	// Request i is due at a uniform random time within its own 1/rate
	// slot. Poisson arrivals made p99 swing by a quarter from seed to
	// seed, since its ten slowest requests mostly came from one or two
	// chance bursts; jittered slots keep the open loop and the rate, with
	// bursts no larger than the load itself makes.
	for i := range st.timed {
		st.due = append(st.due, time.Duration((float64(i)+r.Float64())/serveRate*float64(time.Second)))
	}
	if e.traced {
		// Requests join the trace only when the benchmark propagates a
		// span: the server samples nothing on its own, so the untraced
		// half of the stream runs with tracing off.
		st.tracer = trace.New(trace.Config{SampleRatio: 0, RingSize: n})
	}
	if st.srv, err = startServer(st.tracer); err != nil {
		return nil, err
	}
	if err := pool.warm(st.srv.client, warmup); err != nil {
		return nil, errors.Join(err, st.srv.stop())
	}
	return st, nil
}

func runServeMix(e *env) (*report, error) {
	var setups []float64
	var st *serveSetup
	for i := range serveSetupRepeats {
		t0 := time.Now()
		if i == 0 {
			t0 = e.start
		}
		if st != nil {
			if err := st.srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
		}
		var err error
		if st, err = setUpServe(e); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	resps := make([]response, len(st.timed))
	roots := make([]*trace.Span, len(st.timed))
	clientTracer := trace.New(trace.Config{SampleRatio: 1})
	g0 := readGoCounters()
	c0 := cpuTime()
	ol := runOpenLoop(st.due, serveWindow, func(i int) {
		ctx := context.Background()
		if e.traced && i%2 == 1 {
			roots[i] = clientTracer.Start("request")
			ctx = trace.NewContext(ctx, roots[i])
		}
		resps[i] = st.pool.send(ctx, st.srv.client, st.timed[i])
		roots[i].End()
	})
	cpu := cpuTime() - c0
	allocMB, gcCPU := g0.since()
	if err := st.srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}

	rep := newReport()
	ck := newServeChecker(st.pool, e.seed)
	var lats, tracedLat, untracedLat []time.Duration
	var agg serveAgg
	for i, rs := range resps {
		rep.attempted++
		rq := st.timed[i]
		v := ck.check(rq, rs)
		agg.add(rq, rs, v, ol.latency[i])
		if !v.ok {
			rep.failed++
			ck.reasons = appendReason(ck.reasons, v.reason)
		}
		if v.wrong {
			rep.correct = false
		}
		lat := ol.latency[i]
		if !v.ok {
			lat = failedLatency
		}
		lats = append(lats, lat)
		if roots[i] != nil {
			tracedLat = append(tracedLat, lat)
		} else {
			untracedLat = append(untracedLat, lat)
		}
	}
	sorted := sortedMs(lats)
	rep.info["requests"] = len(st.timed)
	rep.info["compile_requests"] = agg.compiles
	rep.info["samples"] = len(sorted)
	rep.info["p90_beyond"] = beyond(len(sorted), 0.9)
	rep.info["p99_beyond"] = beyond(len(sorted), 0.99)
	rep.info["highest_supported_percentile"], _ = highestSupported(len(sorted), []float64{0.5, 0.9, 0.99})
	rep.info["fingerprint"] = fmt.Sprintf("t=%d clifford=%d hits=%d misses=%d", agg.tCount, agg.clifford, agg.hits, agg.misses)
	rep.info["checked_outputs"] = ck.checked
	rep.info["simulated_outputs"] = ck.simulated
	rep.info["sim_qubit_cap"] = simQubitCap
	rep.info["setup_s"] = setups
	rep.info["failures"] = ck.reasons
	rep.info["generator_max_late_ms"] = ms(ol.maxLate)
	rep.info["stream_s"] = ol.wall.Seconds()
	if !e.traced {
		vals, fallback := latencyMetrics(sorted)
		rep.info["latency_mean_for"] = fallback
		vals["setup_s"] = median(setups)
		vals["wall_s"] = ol.wall.Seconds()
		vals["cpu_s"] = cpu.Seconds()
		vals["t_count"] = float64(agg.tCount)
		vals["clifford_count"] = float64(agg.clifford)
		vals["peak_rss_mb"] = peakRSSMB()
		vals["ok_share"] = 1 - float64(rep.failed)/float64(rep.attempted)
		return rep, emitEndToEnd(rep, vals)
	}

	spans := newSpanTable()
	for _, root := range roots {
		if root == nil {
			continue
		}
		spans.add(root)
		for _, frag := range st.tracer.Collect(root.TraceID()) {
			spans.add(frag)
		}
	}
	traced := float64(len(tracedLat))
	l := layerSink{
		"go.alloc_mb":  allocMB,
		"go.gc_cpu_s":  gcCPU,
		"failed_share": float64(rep.failed) / float64(rep.attempted),
		"trace.ops":    traced,
	}
	agg.fill(l)
	ck.measureCircuitLayer(l, st.timed, resps)
	// Span totals cover the traced half; scale them to the whole stream.
	fillSpanLayers(l, spans, traced/float64(len(st.timed)))
	fillSpanSynth(l, spans, traced/float64(len(st.timed)))
	l["trace.overhead"] = quantile(sortedMs(tracedLat), 0.5)/quantile(sortedMs(untracedLat), 0.5) - 1
	return rep, l.emit(rep)
}

// fillSpanSynth writes the synth.* metrics from synth spans (the serving
// path has no observer hook a client can install), scaling counts and
// busy time by 1/per.
func fillSpanSynth(l layerSink, t *spanTable, per float64) {
	if per == 0 {
		return
	}
	for _, b := range backends {
		walls := t.synthWall[b]
		if len(walls) == 0 {
			continue
		}
		var busy time.Duration
		for _, w := range walls {
			busy += w
		}
		sorted := sortedMs(walls)
		l["synth."+b+".count"] = float64(len(walls)) / per
		l["synth."+b+".busy_s"] = busy.Seconds() / per
		l["synth."+b+".p50_ms"] = quantile(sorted, 0.5)
		l["synth."+b+".p99_ms"] = quantile(sorted, 0.99)
		l["synth."+b+".t_mean"] = float64(t.synthT[b]) / float64(len(walls))
	}
	l["synth.failed"] = float64(t.synthFailed) / per
}

// serveAgg totals the response stats of the timed stream.
type serveAgg struct {
	compiles, synths        int
	tCount, clifford        int
	hits, misses            int
	irRot, folded, unique   int
	tBefore, tSaved         int
	optIters                int
	refused                 int
	wait, service, overhead []time.Duration
}

func (a *serveAgg) add(rq request, rs response, v verdict, lat time.Duration) {
	var apiErr *client.APIError
	if errors.As(rs.err, &apiErr) && (apiErr.Status == http.StatusServiceUnavailable || apiErr.Status == http.StatusTooManyRequests) {
		a.refused++
	}
	var waitMs, serviceMs float64
	switch {
	case rs.compile != nil:
		s := rs.compile.Stats
		a.compiles++
		a.hits += s.Hits
		a.misses += s.Misses
		a.irRot += s.IRRotations
		a.folded += s.RotationsFolded
		a.unique += s.Unique
		a.tBefore += s.TCountBefore
		a.tSaved += s.TSaved
		a.optIters += s.OptIterations
		waitMs, serviceMs = s.QueueWaitMs, s.ServiceMs
	case rs.synth != nil:
		a.synths++
		a.hits += int(rs.synth.Hits)
		a.misses += int(rs.synth.Misses)
		waitMs, serviceMs = rs.synth.QueueWaitMs, rs.synth.ServiceMs
	default:
		return
	}
	a.tCount += v.tCount
	a.clifford += v.clifford
	wait, service := msDuration(waitMs), msDuration(serviceMs)
	a.wait = append(a.wait, wait)
	a.service = append(a.service, service)
	// What the client saw beyond the server's own accounting: HTTP, JSON
	// and the client, plus any wait for one of the two connections.
	a.overhead = append(a.overhead, lat-wait-service)
}

func msDuration(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func (a *serveAgg) fill(l layerSink) {
	wait, service := sortedMs(a.wait), sortedMs(a.service)
	l["serve.queue_wait_p50_ms"] = quantile(wait, 0.5)
	l["serve.queue_wait_p99_ms"] = quantile(wait, 0.99)
	l["serve.service_p50_ms"] = quantile(service, 0.5)
	l["serve.service_p99_ms"] = quantile(service, 0.99)
	l["serve.overhead_ms"] = quantile(sortedMs(a.overhead), 0.5)
	l["serve.refused"] = float64(a.refused)
	l["serve.compile.count"] = float64(a.compiles)
	l["serve.synthesize.count"] = float64(a.synths)
	l["transpile.ir_rotations"] = float64(a.irRot)
	l["lower.unique"] = float64(a.unique)
	l["cache.lookups"] = float64(a.hits + a.misses)
	if a.hits+a.misses > 0 {
		l["cache.hit_ratio"] = float64(a.hits) / float64(a.hits+a.misses)
	}
	if a.irRot > 0 {
		l["optrot.folded_ratio"] = float64(a.folded) / float64(a.irRot)
	}
	if a.tBefore > 0 {
		l["optct.t_saved_ratio"] = float64(a.tSaved) / float64(a.tBefore)
	}
	if a.compiles > 0 {
		l["optct.iterations"] = float64(a.optIters) / float64(a.compiles)
	}
}

// serveChecker checks responses, once per distinct (request item, output).
type serveChecker struct {
	pool               *servePool
	seed               uint64
	circuits           map[[2]uint64]verdict
	rotations          map[[2]uint64]verdict
	checked, simulated int
	reasons            []string
}

func newServeChecker(p *servePool, seed uint64) *serveChecker {
	return &serveChecker{pool: p, seed: seed, circuits: map[[2]uint64]verdict{}, rotations: map[[2]uint64]verdict{}}
}

func (c *serveChecker) check(rq request, rs response) verdict {
	switch {
	case rs.err != nil:
		return verdict{reason: rs.err.Error()}
	case rq.compile:
		in := c.pool.circuits[rq.item]
		out := rs.compile.QASM
		key := [2]uint64{uint64(rq.item), hashString(out)}
		v, ok := c.circuits[key]
		if !ok {
			s := rs.compile.Stats
			v = checkCircuit(in.circ, out, s.ErrorBound, 0, s.Rotations, contract{circuitEps: serveCompileEps},
				c.seed^hashString(in.name))
			if !v.ok {
				v.reason = in.name + ": " + v.reason
			}
			c.circuits[key] = v
			c.count(v)
		}
		return v
	default:
		if len(rs.synth.Results) != len(rq.batch) {
			return verdict{wrong: true, reason: fmt.Sprintf("synthesize returned %d results for %d rotations", len(rs.synth.Results), len(rq.batch))}
		}
		sum := verdict{ok: true}
		for i, a := range rq.batch {
			res := rs.synth.Results[i]
			if res.Failure != "" {
				sum.ok, sum.reason = false, "synthesize: "+res.Failure
				continue
			}
			key := [2]uint64{uint64(a), hashString(res.Seq)}
			v, ok := c.rotations[key]
			if !ok {
				v = checkSequence(c.pool.angles[a], res.Seq, res.Error, serveSynthEps)
				c.rotations[key] = v
				c.count(v)
			}
			sum.tCount += v.tCount
			sum.clifford += v.clifford
			if !v.ok {
				sum.ok, sum.reason = false, "synthesize: "+v.reason
			}
			sum.wrong = sum.wrong || v.wrong
		}
		return sum
	}
}

func (c *serveChecker) count(v verdict) {
	c.checked++
	if v.simulated {
		c.simulated++
	}
}

// measureCircuitLayer times the QASM front and back end on the stream's
// own circuits: the server parses each compile request and emits each
// result inside the request, where a client cannot time them, so the
// benchmark makes the same calls on the same texts after the run.
func (c *serveChecker) measureCircuitLayer(l layerSink, timed []request, resps []response) {
	var parse, emit time.Duration
	var opsIn, opsOut int
	for i, rq := range timed {
		if !rq.compile || resps[i].compile == nil {
			continue
		}
		t0 := time.Now()
		in, err := circuit.ParseQASM(c.pool.circuits[rq.item].qasm)
		parse += time.Since(t0)
		if err != nil {
			continue
		}
		out, err := circuit.ParseQASM(resps[i].compile.QASM)
		if err != nil {
			continue
		}
		t1 := time.Now()
		_ = out.QASM()
		emit += time.Since(t1)
		opsIn += len(in.Ops)
		opsOut += len(out.Ops)
	}
	l["circuit.parse_s"] = parse.Seconds()
	l["circuit.emit_s"] = emit.Seconds()
	l["circuit.ops_in"] = float64(opsIn)
	l["circuit.ops_out"] = float64(opsOut)
}
