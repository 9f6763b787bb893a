package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"

	"repro/circuit"
	"repro/internal/gates"
	"repro/internal/sim"
)

// simQubitCap is the widest circuit whose output is simulated: a 12-qubit
// state is 4096 amplitudes, so simulating an output of ~10⁵ gates stays
// well under a second. Wider outputs get the structural and error-bound
// checks only.
const simQubitCap = 12

// simSlack absorbs two effects: the paper's distance D = sqrt(1-|Tr U†V|²/4)
// is the phase-free operator-norm distance divided by cos(θ/4), which is at
// most 1.3e-5 apart for D ≤ 1e-2, and float rounding over long outputs.
const (
	simRelSlack = 1e-4
	simAbsSlack = 1e-9
)

// verdict is the outcome of checking one output.
type verdict struct {
	// ok: the output passed every check; otherwise the op counts as failed.
	ok bool
	// wrong: the output is shown to be wrong (it does not parse, still
	// holds rotations, or its simulated action is off by more than ε),
	// as opposed to merely failing the program's own error-bound contract.
	wrong     bool
	simulated bool
	tCount    int
	clifford  int
	opsOut    int
	reason    string
}

// contract is the ε an output must meet: a circuit-level budget, or a
// per-rotation threshold (when circuitEps is 0).
type contract struct {
	circuitEps float64
	rotEps     float64
}

// checkCircuit checks one compiled circuit against the circuit the program
// was given. errorBound is the program's reported additive error bound,
// maxErr its worst single rotation error and rotations the number of
// rotations it synthesized.
func checkCircuit(in *circuit.Circuit, outQASM string, errorBound, maxErr float64, rotations int, c contract, seed uint64) verdict {
	out, err := circuit.ParseQASM(outQASM)
	if err != nil {
		return verdict{wrong: true, reason: fmt.Sprintf("output does not parse: %v", err)}
	}
	v := verdict{ok: true, tCount: out.TCount(), clifford: out.CliffordCount(), opsOut: len(out.Ops)}
	for _, op := range out.Ops {
		if op.G.IsRotation() {
			return verdict{wrong: true, reason: fmt.Sprintf("output still holds a %s rotation", op.G)}
		}
	}
	if out.N != in.N {
		return verdict{wrong: true, reason: fmt.Sprintf("output has %d qubits, input %d", out.N, in.N)}
	}
	budget := c.circuitEps
	if budget == 0 {
		budget = float64(rotations) * c.rotEps
		if maxErr > c.rotEps {
			v.ok = false
			v.reason = fmt.Sprintf("a rotation's error %.6g exceeds ε %.3g", maxErr, c.rotEps)
		}
	}
	if errorBound > budget {
		v.ok = false
		v.reason = fmt.Sprintf("reported error bound %.6g exceeds ε %.3g", errorBound, budget)
	}
	if in.N <= simQubitCap {
		v.simulated = true
		limit := math.Min(budget, errorBound)*(1+simRelSlack) + simAbsSlack
		if d := stateDistance(in, out, seed); d > limit {
			v.ok, v.wrong = false, true
			v.reason = fmt.Sprintf("simulated state distance %.6g exceeds %.6g", d, limit)
		}
	}
	return v
}

// checkSequence checks one synthesized rotation: seq must be a Clifford+T
// word whose matrix, built by simulating it, is within eps of target.
func checkSequence(target circuit.Op, seq string, reportedErr, eps float64) verdict {
	word, err := gates.Parse(seq)
	if err != nil || seq == "" {
		return verdict{wrong: true, reason: fmt.Sprintf("sequence %q does not parse: %v", seq, err)}
	}
	c := circuit.New(1)
	for _, op := range circuit.FromSequence(word, 0) {
		c.Add(op)
	}
	v := verdict{ok: true, simulated: true, tCount: c.TCount(), clifford: c.CliffordCount(), opsOut: len(c.Ops)}
	if reportedErr > eps {
		v.ok = false
		v.reason = fmt.Sprintf("reported error %.6g exceeds ε %.3g", reportedErr, eps)
	}
	u := sim.Unitary(c)
	t := target.Matrix1Q()
	var tr complex128
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			tr += cmplx.Conj(t[i][j]) * u[i][j]
		}
	}
	a := cmplx.Abs(tr) / 2
	if d := math.Sqrt(math.Max(0, (1-a)*(1+a))); d > eps*(1+simRelSlack)+simAbsSlack {
		v.ok, v.wrong = false, true
		v.reason = fmt.Sprintf("simulated distance %.6g exceeds ε %.3g", d, eps)
	}
	return v
}

// stateDistance runs in and out on the same seeded random state and
// returns min over global phase φ of ‖in|ψ⟩ − e^{iφ}·out|ψ⟩‖, summed term
// by term so that small distances do not cancel away.
func stateDistance(in, out *circuit.Circuit, seed uint64) float64 {
	psi := randomState(in.N, seed)
	a, b := psi.Clone(), psi
	a.Run(in)
	b.Run(out)
	ip := sim.Inner(a, b)
	phase := complex(1, 0)
	if r := cmplx.Abs(ip); r > 0 {
		phase = cmplx.Conj(ip) / complex(r, 0)
	}
	var s float64
	for i := range a.Amp {
		d := a.Amp[i] - phase*b.Amp[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(s)
}

// randomState is a Haar-random n-qubit state drawn from seed.
func randomState(n int, seed uint64) *sim.State {
	r := rand.New(rand.NewPCG(seed, 0x5eed5eed))
	s := sim.NewState(n)
	var norm float64
	for i := range s.Amp {
		s.Amp[i] = complex(r.NormFloat64(), r.NormFloat64())
		norm += real(s.Amp[i])*real(s.Amp[i]) + imag(s.Amp[i])*imag(s.Amp[i])
	}
	k := complex(1/math.Sqrt(norm), 0)
	for i := range s.Amp {
		s.Amp[i] *= k
	}
	return s
}
