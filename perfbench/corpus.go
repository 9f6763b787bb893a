package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"repro/circuit"
	"repro/internal/suite"
)

// input is one circuit as the program receives it: QASM text. circ is the
// same text parsed once at set-up, the reference the output check
// simulates against (QASM rounds angles, so the text is the ground truth).
type input struct {
	name string
	qasm string
	circ *circuit.Circuit
}

// fixedDrawSeed seeds every choice that sets how much work a workload
// does (which circuits, how popular each is). The run's --seed only
// orders that work and times its arrivals, so totals such as t_count do
// not move between seeds.
const fixedDrawSeed = 20260317

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// render turns suite benchmarks into inputs.
func render(bs []suite.Benchmark) ([]input, error) {
	out := make([]input, len(bs))
	for i, b := range bs {
		src := b.Circuit.QASM()
		c, err := circuit.ParseQASM(src)
		if err != nil {
			return nil, fmt.Errorf("rendering %s: %w", b.Name, err)
		}
		out[i] = input{name: b.Name, qasm: src, circ: c}
	}
	return out, nil
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](xs []T, r *rand.Rand) []T {
	out := append([]T(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// rotationBand keeps suite circuits whose raw nontrivial rotation count
// lies in [lo, hi].
func rotationBand(bs []suite.Benchmark, lo, hi int) []suite.Benchmark {
	var out []suite.Benchmark
	for _, b := range bs {
		if n := b.Circuit.CountRotations(); n >= lo && n <= hi {
			out = append(out, b)
		}
	}
	return out
}

// drawUntil draws circuits without replacement until their raw rotation
// counts sum to at least target.
func drawUntil(bs []suite.Benchmark, target int, r *rand.Rand) []suite.Benchmark {
	var out []suite.Benchmark
	total := 0
	for _, i := range r.Perm(len(bs)) {
		if total >= target {
			break
		}
		out = append(out, bs[i])
		total += bs[i].Circuit.CountRotations()
	}
	return out
}

// zipfCounts splits n draws over k ranked items in proportion to
// Zipf(s) weights 1/rank^s, rounding by largest remainder: the expected
// histogram of n Zipf draws, without sampling noise.
func zipfCounts(k, n int, s float64) []int {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	counts := make([]int, k)
	rem := make([]float64, k)
	left := n
	for i := range w {
		x := float64(n) * w[i] / sum
		counts[i] = int(x)
		rem[i] = x - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// expand lists each item index i counts[i] times.
func expand(counts []int) []int {
	var out []int
	for i, c := range counts {
		for range c {
			out = append(out, i)
		}
	}
	return out
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
