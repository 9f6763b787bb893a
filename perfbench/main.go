// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the compiler and the synthesis service, checks
// every output against an independent statevector simulation, and prints
// the workload's metrics as one JSON line.
//
//	perfbench --workload compile-rz --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last line carries the end-to-end metrics, measured
// with tracing off. With --trace 1 it carries the per-layer breakdown: the
// run alternates untraced and traced work, reads the program's public
// stats and hooks, and aggregates the spans of the traced half. See
// README.md for the workloads, their parameters and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is what every workload receives from the command line.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	start   time.Time // process start, for the first set-up
}

// budget is the measured time a run aims for.
func (e *env) budget() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: the contract's four result fields
// plus the metrics of the requested kind and an informational stanza.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	info      map[string]any
}

func newReport() *report {
	return &report{correct: true, metrics: map[string]metric{}, info: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// workloads maps each --workload name to its runner.
var workloads = map[string]func(*env) (*report, error){
	"compile-rz": runCompileRz,
	"compile-u3": runCompileU3,
	"serve-mix":  runServeMix,
}

func main() {
	e := &env{start: time.Now()}
	var (
		name  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		trace = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	)
	flag.Uint64Var(&e.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&e.seconds, "seconds", 25, "measured time to aim for, in seconds")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fail("unknown --workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1, not %d", *trace)
	}
	if e.seconds <= 0 {
		fail("--seconds must be positive")
	}
	e.traced = *trace == 1

	steal0 := stealSeconds()
	rep, err := run(e)
	if err != nil {
		fail("%s: %v", *name, err)
	}
	rep.info["workload"] = *name
	rep.info["seed"] = e.seed
	rep.info["trace"] = *trace
	rep.info["noise"] = noiseStanza(steal0)
	if rep.attempted < 1 {
		fail("%s: no operation was attempted", *name)
	}

	info, err := json.Marshal(map[string]any{"info": rep.info})
	if err != nil {
		fail("encoding info: %v", err)
	}
	fmt.Println(string(info))
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fail("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// noiseStanza records what the host did during the run. It is reported,
// never gated on.
func noiseStanza(steal0 float64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"steal_s":    stealSeconds() - steal0,
	}
}
