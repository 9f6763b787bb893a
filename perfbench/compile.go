package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/circuit"
	"repro/internal/suite"
	"repro/synth"
	"repro/synth/trace"
)

// compileSpec is one batch-compile workload: a fixed corpus, compiled
// circuit by circuit in laps, each circuit through its own fresh Pipeline
// (its own cache), as separate cmd/compile invocations would.
type compileSpec struct {
	corpus   func() ([]input, error)
	pipeline func(observe func(synth.SynthObservation)) (*synth.Pipeline, error)
	contract contract
	// racing marks the auto backend, whose observations are race outcomes.
	racing bool
	// setups is how many times a run sets the workload up from scratch;
	// setup_s is their median, so one slow set-up does not decide it.
	setups int
}

// compileRz is the paper's Gridsynth baseline workflow, as
// `compile -backend gridsynth -ir rz -eps 1e-3 -opt 1` runs it, over all
// 192 suite circuits.
func compileRz() compileSpec {
	return compileSpec{
		corpus: func() ([]input, error) { return render(suite.Suite()) },
		pipeline: func(observe func(synth.SynthObservation)) (*synth.Pipeline, error) {
			opts := []synth.Option{
				synth.WithRequest(synth.Request{Seed: synth.Seed(1)}),
				synth.WithIR(synth.IRRz),
				synth.WithCircuitEpsilon(1e-3),
				synth.WithBudgetStrategy(synth.BudgetUniform),
				synth.WithOptimize(1),
			}
			if observe != nil {
				opts = append(opts, synth.WithSynthObserver(observe))
			}
			return synth.NewPipelineFor("gridsynth", opts...)
		},
		contract: contract{circuitEps: 1e-3},
		setups:   9,
	}
}

// compileU3 is cmd/compile's defaults (auto backend, CX+U3 IR, per-rotation
// ε 1e-2, no optimizer, seed 1) over a fixed draw of suite circuits with
// 1–12 raw rotations, about 60 rotations in all.
func compileU3() compileSpec {
	return compileSpec{
		corpus: func() ([]input, error) {
			band := rotationBand(suite.Suite(), 1, 12)
			return render(drawUntil(band, 60, newRand(fixedDrawSeed, 1)))
		},
		pipeline: func(observe func(synth.SynthObservation)) (*synth.Pipeline, error) {
			opts := []synth.Option{synth.WithRequest(synth.Request{Seed: synth.Seed(1)})}
			if observe != nil {
				opts = append(opts, synth.WithSynthObserver(observe))
			}
			return synth.NewPipelineFor("auto", opts...)
		},
		contract: contract{rotEps: synth.DefaultEpsilon},
		racing:   true,
		setups:   5,
	}
}

func runCompileRz(e *env) (*report, error) { return runCompile(e, compileRz()) }
func runCompileU3(e *env) (*report, error) { return runCompile(e, compileU3()) }

// opResult is one timed compile.
type opResult struct {
	lat, parse, emit time.Duration
	opsIn, opsOut    int
	peakMB           float64 // the process's peak resident set during the op
	out              string
	stats            synth.PipelineStats
	err              error
}

// compileOne is the timed unit: QASM in → parse → fresh pipeline → emit.
// root, when non-nil, is the op's trace root.
func (s compileSpec) compileOne(in input, observe func(synth.SynthObservation), root *trace.Span) opResult {
	ctx := context.Background()
	t0 := time.Now()
	ps := root.Child("circuit.parse")
	c, err := circuit.ParseQASM(in.qasm)
	ps.End()
	t1 := time.Now()
	if err != nil {
		return opResult{err: fmt.Errorf("parsing %s: %w", in.name, err)}
	}
	pl, err := s.pipeline(observe)
	if err != nil {
		return opResult{err: err}
	}
	if root != nil {
		ctx = trace.NewContext(ctx, root)
	}
	res, err := pl.Run(ctx, c)
	if err != nil {
		return opResult{err: fmt.Errorf("compiling %s: %w", in.name, err)}
	}
	t2 := time.Now()
	es := root.Child("circuit.emit")
	out := res.Circuit.QASM()
	es.End()
	t3 := time.Now()
	return opResult{
		lat: t3.Sub(t0), parse: t1.Sub(t0), emit: t3.Sub(t2),
		opsIn: len(c.Ops), opsOut: len(res.Circuit.Ops),
		out: out, stats: res.Stats,
	}
}

// setUp builds the corpus in the run's order and compiles one circuit
// untimed, so lazy tables are built before the first timed op.
func (s compileSpec) setUp(e *env) ([]input, error) {
	corpus, err := s.corpus()
	if err != nil {
		return nil, err
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("empty corpus")
	}
	if r := s.compileOne(warmupInput(corpus), nil, nil); r.err != nil {
		return nil, fmt.Errorf("warm-up: %w", r.err)
	}
	return shuffled(corpus, newRand(e.seed, 2)), nil
}

// warmupInput is the corpus's smallest circuit that has a rotation to
// synthesize: cheap, and the same whatever the seed.
func warmupInput(corpus []input) input {
	best := corpus[0]
	for _, in := range corpus[1:] {
		r, br := in.circ.CountRotations(), best.circ.CountRotations()
		if (br == 0 && r > 0) || (r > 0 && (len(in.circ.Ops) < len(best.circ.Ops) ||
			len(in.circ.Ops) == len(best.circ.Ops) && in.name < best.name)) {
			best = in
		}
	}
	return best
}

// lapTotals sums one lap.
type lapTotals struct {
	wall, cpu          time.Duration
	parse, emit        time.Duration
	opsIn, opsOut      int
	tCount, clifford   int
	irRot, unique      int
	hits, misses       int
	rotBefore, rotFold int
	tBefore, tSaved    int
	optIters, optRuns  int
	allocMB, gcCPU     float64
	fingerprint        string
}

func runCompile(e *env, s compileSpec) (*report, error) {
	var setups []float64
	var corpus []input
	for i := range s.setups {
		t0 := time.Now()
		if i == 0 {
			t0 = e.start
		}
		c, err := s.setUp(e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		corpus = c
	}

	rep := newReport()
	var tally *synthTally
	var observe func(synth.SynthObservation)
	if e.traced {
		tally = newSynthTally(s.racing)
		observe = tally.observe
	}
	spans := newSpanTable()
	verdicts := map[[2]uint64]verdict{}
	// Each circuit stands for one compile invocation, so the memory a user
	// sees is the peak while it runs: the peak is restarted before each op
	// where the kernel allows it, and is otherwise the whole process's.
	perOpPeak := resetPeakRSS() == nil
	var (
		laps                     []lapTotals
		lats                     []time.Duration
		peaks                    []float64
		untracedWall, tracedWall []float64
		measured                 time.Duration
		reasons                  []string
		simulated, checked       int
		lapWins                  []string
	)
	for lap := 0; ; lap++ {
		tracedLap := e.traced && lap%2 == 1
		var tracer *trace.Tracer
		if tracedLap {
			tracer = trace.New(trace.Config{SampleRatio: 1})
		}
		results := make([]opResult, len(corpus))
		var roots []*trace.Span
		g0 := readGoCounters()
		c0, w0 := cpuTime(), time.Now()
		for i, in := range corpus {
			if perOpPeak {
				resetPeakRSS()
			}
			root := tracer.Start("op")
			results[i] = s.compileOne(in, observe, root)
			root.End()
			results[i].peakMB = peakRSSMB()
			if root != nil {
				roots = append(roots, root)
			}
		}
		lt := lapTotals{wall: time.Since(w0), cpu: cpuTime() - c0}
		lt.allocMB, lt.gcCPU = g0.since()
		for _, r := range roots {
			spans.add(r)
		}
		if tracedLap {
			tracedWall = append(tracedWall, lt.wall.Seconds())
		} else {
			untracedWall = append(untracedWall, lt.wall.Seconds())
		}

		// Output checks, outside the timed region. Outputs repeat from lap
		// to lap, so each distinct (input, output) pair is checked once.
		for i, r := range results {
			rep.attempted++
			peaks = append(peaks, r.peakMB)
			if r.err != nil {
				rep.failed++
				reasons = appendReason(reasons, r.err.Error())
				lats = append(lats, failedLatency)
				continue
			}
			key := [2]uint64{uint64(i), hashString(r.out)}
			v, seen := verdicts[key]
			if !seen {
				in := corpus[i]
				v = checkCircuit(in.circ, r.out, r.stats.ErrorBound, r.stats.MaxError, r.stats.Rotations,
					s.contract, e.seed^hashString(in.name))
				verdicts[key] = v
				checked++
				if v.simulated {
					simulated++
				}
			}
			if v.ok {
				lats = append(lats, r.lat)
			} else {
				rep.failed++
				reasons = appendReason(reasons, corpus[i].name+": "+v.reason)
				lats = append(lats, failedLatency)
			}
			if v.wrong {
				rep.correct = false
			}
			lt.add(r, v)
		}
		lt.fingerprint = fmt.Sprintf("t=%d clifford=%d hits=%d misses=%d", lt.tCount, lt.clifford, lt.hits, lt.misses)
		lapWins = append(lapWins, tally.wins())
		laps = append(laps, lt)

		measured += lt.wall
		if measured >= e.budget()-lt.wall/2 && (!e.traced || lap >= 1) {
			break
		}
	}

	deterministic := true
	for _, l := range laps[1:] {
		if l.fingerprint != laps[0].fingerprint {
			deterministic = false
		}
	}
	sorted := sortedMs(lats)
	rep.info["laps"] = len(laps)
	rep.info["ops_per_lap"] = len(corpus)
	rep.info["samples"] = len(sorted)
	rep.info["p90_beyond"] = beyond(len(sorted), 0.9)
	rep.info["p99_beyond"] = beyond(len(sorted), 0.99)
	rep.info["highest_supported_percentile"], _ = highestSupported(len(sorted), []float64{0.5, 0.9, 0.99})
	rep.info["fingerprint"] = laps[0].fingerprint
	rep.info["deterministic_laps"] = deterministic
	rep.info["checked_outputs"] = checked
	rep.info["simulated_outputs"] = simulated
	rep.info["sim_qubit_cap"] = simQubitCap
	rep.info["setup_s"] = setups
	rep.info["failures"] = reasons
	if tally != nil {
		// Cumulative race outcomes after each lap: equal steps mean every
		// lap's races came out the same.
		rep.info["race_wins_cumulative"] = lapWins
	}
	if !e.traced {
		walls, cpus := make([]float64, len(laps)), make([]float64, len(laps))
		for i, l := range laps {
			walls[i], cpus[i] = l.wall.Seconds(), l.cpu.Seconds()
		}
		rep.info["lap_wall_s"] = walls
		vals, fallback := latencyMetrics(sorted)
		rep.info["latency_mean_for"] = fallback
		if perOpPeak {
			vals["peak_rss_mb"] = median(peaks)
			rep.info["peak_rss"] = "median over ops of the peak during the op"
		} else {
			vals["peak_rss_mb"] = peakRSSMB()
			rep.info["peak_rss"] = "whole process: the kernel refused to restart the peak"
		}
		vals["setup_s"] = median(setups)
		vals["wall_s"] = median(walls)
		vals["cpu_s"] = median(cpus)
		vals["t_count"] = float64(laps[0].tCount)
		vals["clifford_count"] = float64(laps[0].clifford)
		vals["ok_share"] = 1 - float64(rep.failed)/float64(rep.attempted)
		return rep, emitEndToEnd(rep, vals)
	}

	// Per-layer metrics, per lap: totals over every lap (hooks and stats)
	// divided by the lap count, and span totals over the traced laps
	// divided by their count.
	n := float64(len(laps))
	var sum lapTotals
	for _, l := range laps {
		sum.merge(l)
	}
	l := layerSink{
		"circuit.parse_s":        sum.parse.Seconds() / n,
		"circuit.emit_s":         sum.emit.Seconds() / n,
		"circuit.ops_in":         float64(sum.opsIn) / n,
		"circuit.ops_out":        float64(sum.opsOut) / n,
		"transpile.ir_rotations": float64(sum.irRot) / n,
		"lower.unique":           float64(sum.unique) / n,
		"cache.lookups":          float64(sum.hits+sum.misses) / n,
		"go.alloc_mb":            sum.allocMB / n,
		"go.gc_cpu_s":            sum.gcCPU / n,
		"failed_share":           float64(rep.failed) / float64(rep.attempted),
	}
	if sum.hits+sum.misses > 0 {
		l["cache.hit_ratio"] = float64(sum.hits) / float64(sum.hits+sum.misses)
	}
	if sum.rotBefore > 0 {
		l["optrot.folded_ratio"] = float64(sum.rotFold) / float64(sum.rotBefore)
	}
	if sum.tBefore > 0 {
		l["optct.t_saved_ratio"] = float64(sum.tSaved) / float64(sum.tBefore)
	}
	if sum.optRuns > 0 {
		l["optct.iterations"] = float64(sum.optIters) / float64(sum.optRuns)
	}
	tally.fill(l, n)
	fillSpanLayers(l, spans, float64(len(tracedWall)))
	l["trace.ops"] = float64(spans.roots)
	l["trace.overhead"] = median(tracedWall)/median(untracedWall) - 1
	return rep, l.emit(rep)
}

// fillSpanLayers writes the span-derived per-layer metrics, dividing
// totals by per (the number of traced laps or streams).
func fillSpanLayers(l layerSink, t *spanTable, per float64) {
	if per == 0 {
		return
	}
	for _, p := range passes {
		l["pass."+p+"_s"] = t.get("pass:"+p).total.Seconds() / per
	}
	l["lower.scan_s"] = t.get("scan").total.Seconds() / per
	if lw := t.get("pass:lower").total; lw > 0 {
		l["lower.pool_util"] = float64(t.lowerSynth) / (float64(lw) * float64(workers()))
	}
	k := t.get("gridsynth.k")
	if t.kScans > 0 {
		l["gridsynth.k_per_synth"] = float64(k.count) / float64(t.kScans)
	}
	l["gridsynth.admitted"] = float64(t.kAdmitted) / per
	l["gridsynth.k_self_s"] = k.self.Seconds() / per
	l["trasyn.self_s"] = t.trasynSelf.Seconds() / per
}

func (lt *lapTotals) add(r opResult, v verdict) {
	lt.parse += r.parse
	lt.emit += r.emit
	lt.opsIn += r.opsIn
	lt.opsOut += r.opsOut
	lt.tCount += v.tCount
	lt.clifford += v.clifford
	st := r.stats
	lt.irRot += st.IRRotations
	lt.unique += st.Unique
	lt.hits += st.Hits
	lt.misses += st.Misses
	if o := st.Opt; o != nil {
		lt.rotBefore += o.PreRotationsBefore
		lt.rotFold += o.PreRotationsBefore - o.PreRotationsAfter
		lt.tBefore += o.TCountBefore
		lt.tSaved += o.TSaved()
		if o.Iterations > 0 {
			lt.optIters += o.Iterations
			lt.optRuns++
		}
	}
}

func (lt *lapTotals) merge(o lapTotals) {
	lt.parse += o.parse
	lt.emit += o.emit
	lt.opsIn += o.opsIn
	lt.opsOut += o.opsOut
	lt.irRot += o.irRot
	lt.unique += o.unique
	lt.hits += o.hits
	lt.misses += o.misses
	lt.rotBefore += o.rotBefore
	lt.rotFold += o.rotFold
	lt.tBefore += o.tBefore
	lt.tSaved += o.tSaved
	lt.optIters += o.optIters
	lt.optRuns += o.optRuns
	lt.allocMB += o.allocMB
	lt.gcCPU += o.gcCPU
}

// appendReason keeps the first few distinct failure reasons for the info
// line.
func appendReason(rs []string, r string) []string {
	if len(rs) >= 8 {
		return rs
	}
	i := sort.SearchStrings(rs, r)
	if i < len(rs) && rs[i] == r {
		return rs
	}
	rs = append(rs, "")
	copy(rs[i+1:], rs[i:])
	rs[i] = r
	return rs
}

// workers is the Lower pass's pool size under the default WithWorkers(0).
func workers() int { return runtime.GOMAXPROCS(0) }
