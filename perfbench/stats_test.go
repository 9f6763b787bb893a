package main

import (
	"slices"
	"testing"
	"time"
)

var ladder = []float64{0.5, 0.9, 0.95, 0.99}

func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{192, 0.9, true},   // one compile-rz lap: p95 leaves only 9 beyond
		{1000, 0.99, true}, // serve-mix stream: p99 leaves exactly 10
		{999, 0.95, true},  // one short of that, p99 leaves 9
		{20, 0.5, true},
		{19, 0, false},
		{9, 0, false}, // a compile-u3 lap supports no percentile
		{0, 0, false},
	} {
		got, ok := highestSupported(tc.n, ladder)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

func TestLatencyMetricsFallBackToMeanWithoutTenBeyond(t *testing.T) {
	// 200 samples support p50 and p90 (19 beyond) but not p99 (1 beyond).
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	vals, fallback := latencyMetrics(s)
	if vals["p50_ms"] != 100 || vals["p90_ms"] != 180 || vals["p99_ms"] != 100.5 {
		t.Errorf("latencyMetrics(1..200) = %v, want p50 100, p90 180, p99 the mean 100.5", vals)
	}
	if !slices.Equal(fallback, []string{"p99_ms"}) {
		t.Errorf("fallback = %v, want [p99_ms]", fallback)
	}
	// Eight circuits, as in one compile-u3 lap, support none.
	vals, fallback = latencyMetrics([]float64{1, 2, 3, 4, 5, 6, 7, 12})
	if vals["p50_ms"] != 5 || vals["p90_ms"] != 5 || vals["p99_ms"] != 5 || len(fallback) != 3 {
		t.Errorf("latencyMetrics(8 samples) = %v, %v; want the mean 5 for all three", vals, fallback)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, 100 * time.Millisecond},
		{"disjoint", []interval{iv(0, 10), iv(20, 30)}, 80 * time.Millisecond},
		// Two racers covering [10,60] together: 50 ms covered, not 60.
		{"overlapping", []interval{iv(10, 40), iv(30, 60)}, 50 * time.Millisecond},
		{"nested", []interval{iv(10, 60), iv(20, 30)}, 50 * time.Millisecond},
		{"identical", []interval{iv(10, 20), iv(10, 20), iv(10, 20)}, 90 * time.Millisecond},
		// A child outliving its parent counts only inside the parent.
		{"clipped", []interval{iv(90, 120), iv(200, 300)}, 90 * time.Millisecond},
		{"covering", []interval{iv(-5, 50), iv(50, 105)}, 0},
	} {
		if got := selfTime(iv(0, 100), tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	// One request at a time: the second and third wait behind the first,
	// and that wait is part of their latency.
	res := runOpenLoop(due, 1, func(int) { time.Sleep(service) })
	for i, lo := range []time.Duration{service, 2*service - time.Millisecond, 3*service - 2*time.Millisecond} {
		if res.latency[i] < lo {
			t.Errorf("latency[%d] = %v, want ≥ %v (measured from its due time)", i, res.latency[i], lo)
		}
	}
	if lo := 2*service - 2*time.Millisecond; res.maxLate < lo {
		t.Errorf("maxLate = %v, want ≥ %v: the third request could not be sent on time", res.maxLate, lo)
	}
	if res.wall < 3*service {
		t.Errorf("wall = %v, want ≥ %v", res.wall, 3*service)
	}
}

func TestOpenLoopDoesNotWaitForEarlierRequests(t *testing.T) {
	due := []time.Duration{0, 5 * time.Millisecond}
	release := make(chan struct{})
	started := make(chan int, 2)
	done := make(chan openLoop)
	go func() {
		done <- runOpenLoop(due, 4, func(i int) {
			started <- i
			if i == 0 {
				<-release
			}
		})
	}()
	// Request 1 must start while request 0 is still blocked.
	if first, second := <-started, <-started; first != 0 || second != 1 {
		t.Fatalf("start order %d, %d; want 0, 1", first, second)
	}
	close(release)
	res := <-done
	if res.latency[0] < res.latency[1] {
		t.Errorf("blocked request 0 took %v, less than request 1's %v", res.latency[0], res.latency[1])
	}
}

func TestZipfCountsAreTheExpectedHistogram(t *testing.T) {
	c := zipfCounts(150, 800, 1.1)
	sum := 0
	for i, n := range c {
		sum += n
		if i > 0 && n > c[i-1] {
			t.Fatalf("counts rise at rank %d: %d > %d", i+1, n, c[i-1])
		}
	}
	if sum != 800 {
		t.Fatalf("counts sum to %d, want 800", sum)
	}
}

func TestServeStreamMultisetIsSeedIndependent(t *testing.T) {
	pool, err := newServePool()
	if err != nil {
		t.Fatal(err)
	}
	multiset := func(seed uint64) ([]int, []int) {
		var items, rots []int
		for _, rq := range pool.stream(1000, newRand(seed, 4)) {
			if rq.compile {
				items = append(items, rq.item)
			} else {
				rots = append(rots, rq.batch...)
			}
		}
		slices.Sort(items)
		slices.Sort(rots)
		return items, rots
	}
	i1, r1 := multiset(1)
	i2, r2 := multiset(2)
	if len(i1) != 800 || len(r1) != 200*serveBatch {
		t.Fatalf("stream holds %d compiles and %d rotations, want 800 and %d", len(i1), len(r1), 200*serveBatch)
	}
	if !slices.Equal(i1, i2) || !slices.Equal(r1, r2) {
		t.Error("the request multiset depends on the seed")
	}
	a, b := pool.stream(1000, newRand(1, 4)), pool.stream(1000, newRand(2, 4))
	if slices.EqualFunc(a, b, func(x, y request) bool { return x.compile == y.compile && x.item == y.item }) {
		t.Error("two seeds gave the same order")
	}
}
