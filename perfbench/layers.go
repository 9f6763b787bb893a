package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/synth"
)

// endToEnd lists the --trace 0 metrics with their units. Every workload
// reports every one of them.
var endToEnd = map[string]string{
	"setup_s":        "s",
	"wall_s":         "s",
	"cpu_s":          "s",
	"p50_ms":         "ms",
	"p90_ms":         "ms",
	"p99_ms":         "ms",
	"t_count":        "count",
	"clifford_count": "count",
	"peak_rss_mb":    "MB",
	"ok_share":       "ratio",
}

// backends are the engines the per-layer synth.* and race.* metrics name.
var backends = []string{"gridsynth", "trasyn"}

// passes are the pass names the per-layer pass.<name>_s metrics cover.
var passes = []string{"transpile", "optrot", "fuse", "snap", "lower", "optct", "estimate"}

// perLayer lists the --trace 1 metrics with their units. A layer a
// workload does not reach reports 0: that is the prediction for it.
func perLayer() map[string]string {
	m := map[string]string{
		"circuit.parse_s":         "s",
		"circuit.emit_s":          "s",
		"circuit.ops_in":          "count",
		"circuit.ops_out":         "count",
		"transpile.ir_rotations":  "count",
		"optrot.folded_ratio":     "ratio",
		"optct.t_saved_ratio":     "ratio",
		"optct.iterations":        "count",
		"lower.scan_s":            "s",
		"lower.unique":            "count",
		"lower.pool_util":         "ratio",
		"cache.lookups":           "count",
		"cache.hit_ratio":         "ratio",
		"synth.failed":            "count",
		"race.loser_s":            "s",
		"race.waste_ratio":        "ratio",
		"gridsynth.k_per_synth":   "count",
		"gridsynth.admitted":      "count",
		"gridsynth.k_self_s":      "s",
		"trasyn.self_s":           "s",
		"serve.queue_wait_p50_ms": "ms",
		"serve.queue_wait_p99_ms": "ms",
		"serve.service_p50_ms":    "ms",
		"serve.service_p99_ms":    "ms",
		"serve.overhead_ms":       "ms",
		"serve.refused":           "count",
		"serve.compile.count":     "count",
		"serve.synthesize.count":  "count",
		"go.alloc_mb":             "MB",
		"go.gc_cpu_s":             "s",
		"trace.overhead":          "ratio",
		"trace.ops":               "count",
		"failed_share":            "ratio",
	}
	for _, p := range passes {
		m["pass."+p+"_s"] = "s"
	}
	for _, b := range backends {
		m["synth."+b+".count"] = "count"
		m["synth."+b+".busy_s"] = "s"
		m["synth."+b+".p50_ms"] = "ms"
		m["synth."+b+".p99_ms"] = "ms"
		m["synth."+b+".t_mean"] = "count"
		m["race."+b+".wins"] = "count"
		m["race."+b+".failed"] = "count"
	}
	return m
}

// layerSink collects per-layer values and emits exactly the catalogue.
type layerSink map[string]float64

func (l layerSink) emit(r *report) error {
	cat := perLayer()
	for name := range l {
		if _, ok := cat[name]; !ok {
			return fmt.Errorf("per-layer metric %q is not in the catalogue", name)
		}
	}
	for name, unit := range cat {
		r.set(name, unit, l[name])
	}
	return nil
}

// emitEndToEnd copies vals into r, insisting on exactly the catalogue.
func emitEndToEnd(r *report, vals map[string]float64) error {
	if len(vals) != len(endToEnd) {
		return fmt.Errorf("got %d end-to-end metrics, want %d", len(vals), len(endToEnd))
	}
	for name, unit := range endToEnd {
		v, ok := vals[name]
		if !ok {
			return fmt.Errorf("end-to-end metric %q missing", name)
		}
		r.set(name, unit, v)
	}
	return nil
}

// synthTally aggregates the synthesis observations of a pipeline's
// WithSynthObserver hook. Workers call it concurrently.
type synthTally struct {
	mu     sync.Mutex
	racing bool
	by     map[string]*backendTally
	failed int
	loser  time.Duration
	racer  time.Duration
}

type backendTally struct {
	walls      []time.Duration
	tSum, tObs int
	wins       int
	failed     int
}

func newSynthTally(racing bool) *synthTally {
	return &synthTally{racing: racing, by: map[string]*backendTally{}}
}

func (t *synthTally) observe(o synth.SynthObservation) {
	if o.CacheHit {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.by[o.Backend]
	if b == nil {
		b = &backendTally{}
		t.by[o.Backend] = b
	}
	b.walls = append(b.walls, o.Wall)
	t.racer += o.Wall
	switch {
	case o.Failed:
		b.failed++
		t.failed++
		t.loser += o.Wall
	case o.Won:
		b.wins++
		b.tSum += o.TCount
		b.tObs++
	default:
		t.loser += o.Wall
		b.tSum += o.TCount
		b.tObs++
	}
}

// wins renders the cumulative race outcome counts (wins/failed per
// backend) stably, for the determinism fingerprint.
func (t *synthTally) wins() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.by))
	for n := range t.by {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf(" %s=%d/%d", n, t.by[n].wins, t.by[n].failed)
	}
	return s
}

// fill writes the synth.* and race.* metrics, dividing totals by per.
func (t *synthTally) fill(l layerSink, per float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range backends {
		b := t.by[name]
		if b == nil {
			continue
		}
		var busy time.Duration
		for _, w := range b.walls {
			busy += w
		}
		sorted := sortedMs(b.walls)
		l["synth."+name+".count"] = float64(len(b.walls)) / per
		l["synth."+name+".busy_s"] = busy.Seconds() / per
		l["synth."+name+".p50_ms"] = quantile(sorted, 0.5)
		l["synth."+name+".p99_ms"] = quantile(sorted, 0.99)
		if b.tObs > 0 {
			l["synth."+name+".t_mean"] = float64(b.tSum) / float64(b.tObs)
		}
		if t.racing {
			l["race."+name+".wins"] = float64(b.wins) / per
			l["race."+name+".failed"] = float64(b.failed) / per
		}
	}
	l["synth.failed"] = float64(t.failed) / per
	if t.racing {
		l["race.loser_s"] = t.loser.Seconds() / per
		if t.racer > 0 {
			l["race.waste_ratio"] = float64(t.loser) / float64(t.racer)
		}
	}
}
