package main

import (
	"strconv"
	"time"

	"repro/synth/trace"
)

// spanAgg totals the spans of one name.
type spanAgg struct {
	count       int
	total, self time.Duration
}

// spanTable aggregates finished span trees by span name, plus the few
// cross-span quantities the per-layer metrics need.
type spanTable struct {
	byName map[string]*spanAgg
	// kAdmitted sums the "admitted" attribute of gridsynth.k spans;
	// kScans counts the distinct spans those k spans hang under, one per
	// Rz solve.
	kAdmitted int
	kScans    int
	// synthWall lists "synth" span durations per producing backend;
	// synthFailed counts synth spans that ended with an error.
	synthWall   map[string][]time.Duration
	synthT      map[string]int
	synthFailed int
	// lowerSynth sums the synth spans that ran under a pass:lower span.
	lowerSynth time.Duration
	// trasynSelf is the self time of trasyn's work: race:trasyn spans,
	// and synth spans trasyn produced without a race.
	trasynSelf time.Duration
	roots      int
}

func newSpanTable() *spanTable {
	return &spanTable{byName: map[string]*spanAgg{}, synthWall: map[string][]time.Duration{}, synthT: map[string]int{}}
}

func spanInterval(s *trace.Span) interval {
	return interval{s.Start(), s.Start().Add(s.Duration())}
}

// add folds one finished tree into the table.
func (t *spanTable) add(root *trace.Span) {
	t.roots++
	t.visit(root, false)
}

func (t *spanTable) visit(s *trace.Span, underLower bool) {
	kids := s.Children()
	ivs := make([]interval, len(kids))
	hasK, hasRace := false, false
	for i, k := range kids {
		ivs[i] = spanInterval(k)
		switch name := k.Name(); {
		case name == "gridsynth.k":
			hasK = true
		case len(name) > 5 && name[:5] == "race:":
			hasRace = true
		}
	}
	self := selfTime(spanInterval(s), ivs)
	name := s.Name()
	a := t.byName[name]
	if a == nil {
		a = &spanAgg{}
		t.byName[name] = a
	}
	a.count++
	a.total += s.Duration()
	a.self += self
	if hasK {
		t.kScans++
	}
	switch name {
	case "gridsynth.k":
		if n, err := strconv.Atoi(s.Attr("admitted")); err == nil {
			t.kAdmitted += n
		}
	case "synth":
		if s.Attr("error") != "" {
			t.synthFailed++
		} else if b := s.Attr("backend"); b != "" {
			t.synthWall[b] = append(t.synthWall[b], s.Duration())
			if n, err := strconv.Atoi(s.Attr("t_count")); err == nil {
				t.synthT[b] += n
			}
			if b == "trasyn" && !hasRace {
				t.trasynSelf += self
			}
		}
		if underLower {
			t.lowerSynth += s.Duration()
		}
	case "race:trasyn":
		t.trasynSelf += self
	case "pass:lower":
		underLower = true
	}
	for _, k := range kids {
		t.visit(k, underLower)
	}
}

// get returns the aggregate for name (zero when no span had it).
func (t *spanTable) get(name string) spanAgg {
	if a := t.byName[name]; a != nil {
		return *a
	}
	return spanAgg{}
}
