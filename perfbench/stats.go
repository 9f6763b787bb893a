package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// failedLatency is the latency charged to a failed op: it misses every
// latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// quantile returns the nearest-rank q-quantile of sorted (ascending):
// the smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), q)]
}

func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples of an n-sample set that lie strictly above its
// nearest-rank q-quantile position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// highestSupported returns the largest q of ladder that leaves at least
// minBeyond of n samples beyond it, or false when none does.
func highestSupported(n int, ladder []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range ladder {
		if beyond(n, q) >= minBeyond && (!ok || q > best) {
			best, ok = q, true
		}
	}
	return best, ok
}

// latencyMetrics returns the p50_ms, p90_ms and p99_ms values of a run's
// sorted op latencies. A percentile with fewer than minBeyond samples
// beyond it is one sample near the top, which a single slow op decides;
// such a percentile reads the mean op latency instead, and its name is
// listed in fallback.
func latencyMetrics(sorted []float64) (vals map[string]float64, fallback []string) {
	vals = map[string]float64{}
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p99_ms", 0.99}} {
		if beyond(len(sorted), p.q) >= minBeyond {
			vals[p.name] = quantile(sorted, p.q)
			continue
		}
		vals[p.name] = mean(sorted)
		fallback = append(fallback, p.name)
	}
	return vals, fallback
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// median of unsorted values (the mean of the middle pair for even n).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a closed-open span of time.
type interval struct{ start, end time.Time }

// selfTime is parent's duration minus the part of it covered by the union
// of the children's intervals. Children run concurrently (pool workers,
// racers), so their durations may overlap and must not be summed.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		s, e := later(c.start, parent.start), earlier(c.end, parent.end)
		if e.After(s) {
			cs = append(cs, interval{s, e})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			cur.end = later(cur.end, c.end)
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return parent.end.Sub(parent.start) - covered
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func earlier(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// openLoop is the outcome of runOpenLoop.
type openLoop struct {
	// latency[i] runs from request i's due time to its completion, so a
	// stall also charges the requests that were due while it lasted.
	latency []time.Duration
	// maxLate is how far behind its schedule the generator ran at worst.
	maxLate time.Duration
	// wall runs from the first due time to the last completion.
	wall time.Duration
}

// runOpenLoop calls do(i) at start+due[i] for every i, whatever the
// progress of earlier calls, with at most maxInflight calls running; a
// full window delays the generator, which shows as lateness. It returns
// once every call has finished.
func runOpenLoop(due []time.Duration, maxInflight int, do func(i int)) openLoop {
	res := openLoop{latency: make([]time.Duration, len(due))}
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var last time.Time
	start := time.Now()
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		if late := time.Since(at); late > res.maxLate {
			res.maxLate = late
		}
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			do(i)
			done := time.Now()
			<-sem
			mu.Lock()
			res.latency[i] = done.Sub(at)
			if done.After(last) {
				last = done
			}
			mu.Unlock()
		}(i, at)
	}
	wg.Wait()
	if len(due) > 0 {
		res.wall = last.Sub(start.Add(due[0]))
	}
	return res
}
