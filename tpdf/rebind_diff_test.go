package tpdf_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/symb"
	"repro/tpdf"
)

// builtinValuations draws deterministic random valuations within every
// declared parameter's (capped) range. Graphs without parameters get the
// single empty valuation.
func builtinValuations(g *tpdf.Graph, n int, seed int64) []symb.Env {
	if len(g.Params) == 0 {
		return []symb.Env{nil}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]symb.Env, 0, n)
	for i := 0; i < n; i++ {
		env := symb.Env{}
		for _, p := range g.Params {
			lo := p.Min
			if lo < 1 {
				lo = 1
			}
			hi := p.Max
			if hi <= 0 || hi > lo+12 {
				hi = lo + 12
			}
			env[p.Name] = lo + rng.Int63n(hi-lo+1)
		}
		out = append(out, env)
	}
	return out
}

// snapshot captures the concrete graph and repetition vector a valuation
// produces, copied out of whichever path built them.
type lowSnapshot struct {
	prod, cons [][]int64
	initial    []int64
	q, r       []int64
}

func snapshotInstantiate(t *testing.T, g *tpdf.Graph, env symb.Env) lowSnapshot {
	t.Helper()
	cg, _, err := g.Instantiate(env)
	if err != nil {
		t.Fatalf("instantiate at %v: %v", env, err)
	}
	sol, err := cg.RepetitionVector()
	if err != nil {
		t.Fatalf("repetition vector at %v: %v", env, err)
	}
	var s lowSnapshot
	for ei := range cg.Edges {
		s.prod = append(s.prod, append([]int64(nil), cg.Edges[ei].Prod...))
		s.cons = append(s.cons, append([]int64(nil), cg.Edges[ei].Cons...))
		s.initial = append(s.initial, cg.Edges[ei].Initial)
	}
	s.q = append([]int64(nil), sol.Q...)
	s.r = append([]int64(nil), sol.R...)
	return s
}

func snapshotRebind(t *testing.T, prog *core.Program, env symb.Env) lowSnapshot {
	t.Helper()
	if err := prog.Rebind(env); err != nil {
		t.Fatalf("rebind at %v: %v", env, err)
	}
	cg, sol := prog.Concrete(), prog.Solution()
	var s lowSnapshot
	for ei := range cg.Edges {
		s.prod = append(s.prod, append([]int64(nil), cg.Edges[ei].Prod...))
		s.cons = append(s.cons, append([]int64(nil), cg.Edges[ei].Cons...))
		s.initial = append(s.initial, cg.Edges[ei].Initial)
	}
	s.q = append([]int64(nil), sol.Q...)
	s.r = append([]int64(nil), sol.R...)
	return s
}

// TestRebindMatchesInstantiateAllBuiltins proves the compiled-rebind path
// byte-identical to fresh instantiation over every builtin graph and
// randomized valuations: same rate tables, same initial tokens, same
// repetition vector — first sequentially through one shared program, then
// with the valuations sharded across workers each owning a program (the
// sweep topology; run under -race in CI).
func TestRebindMatchesInstantiateAllBuiltins(t *testing.T) {
	for _, name := range tpdf.BuiltinNames() {
		g, err := tpdf.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		envs := builtinValuations(g, 6, 23)
		want := make([]lowSnapshot, len(envs))
		for i, env := range envs {
			want[i] = snapshotInstantiate(t, g, env)
		}

		// Sequential: one program revisits every valuation twice (the
		// second pass proves rebinding back is loss-free).
		prog, err := core.Compile(g)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		for round := 0; round < 2; round++ {
			for i, env := range envs {
				got := snapshotRebind(t, prog, env)
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%s: round %d valuation %v: rebind diverged from instantiate", name, round, env)
				}
			}
		}

		// Parallel: worker-owned programs over the same valuations.
		progs := make([]*core.Program, 4)
		got := make([]lowSnapshot, len(envs))
		err = pool.RunWorkers(len(envs), 4, func(w, i int) error {
			if progs[w] == nil {
				var err error
				if progs[w], err = core.Compile(g); err != nil {
					return err
				}
			}
			got[i] = snapshotRebind(t, progs[w], envs[i])
			return nil
		})
		if err != nil {
			t.Fatalf("%s: parallel rebind: %v", name, err)
		}
		for i := range envs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: parallel valuation %v diverged from instantiate", name, envs[i])
			}
		}
	}
}
