package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/symb"
)

// referenceRefuses runs the reference lowering — Instantiate, then the
// repetition-vector solve Rebind performs in the same call — and returns
// its refusal, if any.
func referenceRefuses(g *core.Graph, env symb.Env) error {
	cg, _, err := g.Instantiate(env)
	if err != nil {
		return err
	}
	_, err = cg.RepetitionVector()
	return err
}

// boundaryValuations lists, per declared parameter, the values at and just
// outside its declared bounds plus 0 and 2^40 (every other parameter at its
// default), after the all-defaults valuation.
func boundaryValuations(g *core.Graph) []symb.Env {
	envs := []symb.Env{nil}
	for _, p := range g.Params {
		for _, v := range []int64{0, p.Min - 1, p.Min, p.Max, p.Max + 1, 1 << 40} {
			envs = append(envs, symb.Env{p.Name: v})
		}
	}
	return envs
}

// assertRefusalParity checks, at every valuation, that the product lowering
// (one Program rebound in place) refuses exactly when the reference
// lowering does, that a refusal leaves the Program unbound, and that the
// Program binds again — to the reference's tables — right afterwards. It
// returns how many of the valuations the reference refused.
func assertRefusalParity(t *testing.T, name string, g *core.Graph, envs []symb.Env) (refused int) {
	t.Helper()
	refs := make([]error, len(envs))
	good := -1 // a valuation the reference accepts, to rebind at after a refusal
	for i, env := range envs {
		if refs[i] = referenceRefuses(g, env); refs[i] != nil {
			refused++
		} else if good < 0 {
			good = i
		}
	}
	p, err := core.Compile(g)
	if err != nil {
		// Compile shares Validate with Instantiate: a graph it refuses is
		// refused at every valuation by both.
		if good >= 0 {
			t.Errorf("%s: Compile refuses (%v) but Instantiate accepts %v", name, err, envs[good])
		}
		return refused
	}
	for i, env := range envs {
		prod := p.Rebind(env)
		if (refs[i] == nil) != (prod == nil) {
			t.Errorf("%s at %v: Instantiate says %v, Compile+Rebind says %v", name, env, refs[i], prod)
			continue
		}
		if prod == nil {
			assertRebindMatchesInstantiate(t, g, p, env)
			continue
		}
		if p.Bound() {
			t.Errorf("%s at %v: program still bound after the refusal %v", name, env, prod)
		}
		if good >= 0 {
			assertRebindMatchesInstantiate(t, g, p, envs[good])
		}
	}
	return refused
}

// TestRefusalParityBuiltinsAndGenerated pins which valuations the two
// lowerings refuse, not only the tables they agree on where both accept:
// every built-in graph and a seed sweep of generated ones, probed at and
// just outside every declared bound, at 0 and at 2^40.
func TestRefusalParityBuiltinsAndGenerated(t *testing.T) {
	builtins := map[string]*core.Graph{
		"fig2":         apps.Fig2(),
		"fig4a":        apps.Fig4a(),
		"fig4b":        apps.Fig4b(),
		"ofdm":         apps.OFDMTPDF(apps.DefaultOFDM()),
		"ofdm-csdf":    apps.OFDMCSDF(apps.DefaultOFDM()),
		"edge":         apps.EdgeDetection(500, nil).Graph,
		"fmradio":      apps.FMRadioTPDF(),
		"fmradio-csdf": apps.FMRadioCSDF(),
		"vc1":          apps.VC1Decoder(),
		"avc-me":       apps.MotionEstimation(500, 60, 15).Graph,
	}
	for name, g := range builtins {
		assertRefusalParity(t, name, g, boundaryValuations(g))
	}
	refused := 0
	for seed := int64(1); seed <= 120; seed++ {
		g := gen.Graph(seed, gen.GraphConfig{})
		refused += assertRefusalParity(t, fmt.Sprintf("seed %d", seed), g, boundaryValuations(g))
	}
	if refused == 0 {
		t.Error("the generated sweep never left a declared range: the test compares nothing")
	}
}

// TestRefusalParityHandWrittenRates covers the refusals a declared range
// cannot express: non-integer, all-zero, negative and overflowing rates.
func TestRefusalParityHandWrittenRates(t *testing.T) {
	var envs []symb.Env
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 100, 101, 1 << 40} {
		envs = append(envs, symb.Env{"p": v})
	}
	for _, c := range []struct {
		rate string
		max  int64 // declared maximum of p; 0 leaves it unbounded so 2^40 reaches the rate
	}{
		{"p/2", 0}, {"1/p", 0}, {"[p-1,1]", 0}, {"p-1", 0},
		{"(p-2)*(p-5)", 100}, // negative at 3 and 4 only: Validate's probes must miss them
		{"p*p*p*p*p*p*p*p", 0},
	} {
		rate := c.rate
		g := core.NewGraph(rate)
		g.AddParam("p", 6, 1, c.max)
		a, b := g.AddKernel("A", 1), g.AddKernel("B", 1)
		if _, err := g.Connect(a, rate, b, rate, 0); err != nil {
			t.Fatal(err)
		}
		if refused := assertRefusalParity(t, rate, g, envs); refused == 0 || refused == len(envs) {
			t.Errorf("rate %s: %d of %d valuations refused; the case must have refusals and acceptances", rate, refused, len(envs))
		}
	}
}

// TestRebindRefusalNamesTheRate checks a Rebind refusal reads like
// Instantiate's: the edge, the side and the source rate expression, not
// "compiled expression".
func TestRebindRefusalNamesTheRate(t *testing.T) {
	for _, c := range []struct {
		rate string
		p    int64
		want []string
	}{
		{"p/2", 3, []string{`edge "e1" production`, "p/2", "non-integer 3/2"}},
		{"[p-1,1]", 100, nil}, // accepted
		{"(p-2)*(p-5)", 3, []string{`edge "e1" production`, "p^2 - 7*p + 10", "negative -2"}},
	} {
		g := core.NewGraph(c.rate)
		g.AddParam("p", 6, 1, 100)
		a, b := g.AddKernel("A", 1), g.AddKernel("B", 1)
		if _, err := g.Connect(a, c.rate, b, c.rate, 0); err != nil {
			t.Fatal(err)
		}
		_, err := core.Bind(g, symb.Env{"p": c.p})
		if (err == nil) != (c.want == nil) {
			t.Fatalf("rate %s at p=%d: err = %v", c.rate, c.p, err)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("rate %s at p=%d: %q does not mention %q", c.rate, c.p, err, w)
			}
		}
	}
}
