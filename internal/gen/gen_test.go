package gen

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/graphio"
)

// Same seed, same config → byte-identical graph text and schedule text.
func TestDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g1 := Graph(seed, GraphConfig{})
		g2 := Graph(seed, GraphConfig{})
		t1, t2 := graphio.Format(g1), graphio.Format(g2)
		if t1 != t2 {
			t.Fatalf("seed %d: graph text differs:\n%s\n---\n%s", seed, t1, t2)
		}
		s1 := NewSchedule(seed, g1, ScheduleConfig{})
		s2 := NewSchedule(seed, g2, ScheduleConfig{})
		if s1.String() != s2.String() {
			t.Fatalf("seed %d: schedule text differs:\n%s\n---\n%s", seed, s1, s2)
		}
	}
}

// Every generated graph is valid: parses back from its own text, is
// consistent, live, and Theorem 2-bounded.
func TestGeneratedGraphsValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		g := Graph(seed, GraphConfig{})
		text := graphio.Format(g)
		back, err := graphio.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: generated graph does not parse: %v\n%s", seed, err, text)
		}
		if got := graphio.Format(back); got != text {
			t.Fatalf("seed %d: format not a fixpoint:\n%s\n---\n%s", seed, text, got)
		}
		rep := analysis.Analyze(g)
		if !rep.Consistent {
			t.Fatalf("seed %d: inconsistent: %v\n%s", seed, rep.Err, text)
		}
		if !rep.Live {
			t.Fatalf("seed %d: not live: %v\n%s", seed, rep.Err, text)
		}
		if !rep.Bounded {
			t.Fatalf("seed %d: not bounded: %v\n%s", seed, rep.Err, text)
		}
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		g := Graph(seed, GraphConfig{})
		s := NewSchedule(seed, g, ScheduleConfig{})
		text := s.String()
		back, err := ParseSchedule(text)
		if err != nil {
			t.Fatalf("seed %d: schedule does not parse: %v\n%s", seed, err, text)
		}
		if got := back.String(); got != text {
			t.Fatalf("seed %d: schedule round-trip differs:\n%s\n---\n%s", seed, text, got)
		}
		var pumped int64
		for _, p := range s.Pumps {
			pumped += p
		}
		if pumped != s.Iterations {
			t.Fatalf("seed %d: pumps sum %d != iterations %d", seed, pumped, s.Iterations)
		}
		for _, rb := range s.Rebinds {
			if rb.At < 1 || rb.At >= s.Iterations {
				t.Fatalf("seed %d: rebind boundary %d outside (0,%d)", seed, rb.At, s.Iterations)
			}
		}
	}
}

func TestScheduleParseErrors(t *testing.T) {
	cases := []string{
		"",                        // missing iterations
		"iterations 0\n",          // bad count
		"iterations 2\nbase p0\n", // malformed assignment
		"iterations 2\nbogus 1\n", // unknown directive
		"iterations 2\npump x\n",  // non-numeric
	}
	for _, src := range cases {
		if _, err := ParseSchedule(src); err == nil {
			t.Errorf("ParseSchedule(%q): want error, got nil", src)
		}
	}
}

// Config knobs actually suppress what they claim to.
func TestConfigKnobs(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := Graph(seed, GraphConfig{NoCycles: true, NoSpecials: true, NoPhases: true, MaxParams: -1})
		text := graphio.Format(g)
		if strings.Contains(text, "param ") {
			t.Fatalf("seed %d: MaxParams<0 still declared params:\n%s", seed, text)
		}
		if strings.Contains(text, "init ") {
			t.Fatalf("seed %d: NoCycles still produced initial tokens:\n%s", seed, text)
		}
		if strings.Contains(text, "transaction ") || strings.Contains(text, "selectdup ") {
			t.Fatalf("seed %d: NoSpecials still produced specials:\n%s", seed, text)
		}
	}
}
