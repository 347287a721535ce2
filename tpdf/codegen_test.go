package tpdf_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/tpdf"
)

// generatedMain drives every generated package: count runs RunIteration
// twice with behaviors that count their firings and produce nothing, and
// overflow runs it once with one node producing n payloads on one port.
const generatedMain = `package main

import (
	"encoding/json"
	"os"
%s)

type result struct {
	Firings  map[string]int
	Err      string
	Overflow string
}

func count[F ~func(map[string][]T) map[string][]T, T any](nodes []string, run func(map[string]F) error) result {
	r := result{Firings: map[string]int{}}
	b := map[string]F{}
	for _, n := range nodes {
		b[n] = func(map[string][]T) map[string][]T { r.Firings[n]++; return nil }
	}
	for i := 0; i < 2; i++ {
		if err := run(b); err != nil {
			r.Err = err.Error()
			break
		}
	}
	return r
}

func overflow[F ~func(map[string][]T) map[string][]T, T any](node, port string, n int, run func(map[string]F) error) string {
	b := map[string]F{node: func(map[string][]T) map[string][]T { return map[string][]T{port: make([]T, n)} }}
	if err := run(b); err != nil {
		return err.Error()
	}
	return ""
}

func main() {
	out := map[string]result{}
%s	json.NewEncoder(os.Stdout).Encode(out)
}
`

// TestGeneratedCodeRunsLikeExecute builds the code GenerateCode emits for
// every builtin and generated graphs 1–24 into one program and runs it. Two
// RunIteration calls with counting behaviors must fire every node as often
// as Execute does in two iterations (q × 2), and a behavior that produces
// one payload more than its port's rate must fail, naming node and port, as
// it fails Execute.
func TestGeneratedCodeRunsLikeExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a generated program; skipped in -short")
	}
	names := tpdf.BuiltinNames()
	graphs := make([]*tpdf.Graph, 0, len(names)+24)
	for _, name := range names {
		g, err := tpdf.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for seed := int64(1); seed <= 24; seed++ {
		graphs = append(graphs, gen.Graph(seed, gen.GraphConfig{}))
		names = append(names, fmt.Sprintf("gen%d", seed))
	}

	// The overflow leg: fig2's A produces p = 2 payloads per firing on e1.
	const overNode = "A"
	fig2, err := tpdf.Builtin("fig2")
	if err != nil {
		t.Fatal(err)
	}
	var overPort string
	for _, e := range fig2.Edges {
		if e.Name == "e1" {
			overPort = fig2.Nodes[e.Src].Ports[e.SrcPort].Name
		}
	}
	_, execErr := tpdf.Execute(fig2, map[string]tpdf.Behavior{overNode: func(f *tpdf.Firing) error {
		f.Produce(overPort, 1, 2, 3)
		return nil
	}})
	if execErr == nil || !strings.Contains(execErr.Error(), "port "+overPort+" produced 3 payloads, rate is 2") {
		t.Fatalf("Execute with one payload too many: %v", execErr)
	}

	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module generated\n\ngo 1.24\n")
	var imports, calls strings.Builder
	for i, g := range graphs {
		src, err := tpdf.GenerateCode(g)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		write(fmt.Sprintf("g%d/schedule.go", i), src)
		fmt.Fprintf(&imports, "\tg%d \"generated/g%d\"\n", i, i)
		nodes := make([]string, len(g.Nodes))
		for j, n := range g.Nodes {
			nodes[j] = fmt.Sprintf("%q", n.Name)
		}
		fmt.Fprintf(&calls, "\tout[%q] = count([]string{%s}, g%d.RunIteration)\n", names[i], strings.Join(nodes, ", "), i)
		if names[i] == "fig2" {
			fmt.Fprintf(&calls, "\tr := out[%q]\n\tr.Overflow = overflow(%q, %q, 3, g%d.RunIteration)\n\tout[%q] = r\n",
				names[i], overNode, overPort, i, names[i])
		}
	}
	write("main.go", fmt.Sprintf(generatedMain, imports.String(), calls.String()))

	bin := filepath.Join(dir, "generated.bin")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("generated code does not build: %v\n%s", err, out)
	}
	stdout, err := exec.Command(bin).Output()
	if err != nil {
		t.Fatalf("generated program: %v", err)
	}
	var got map[string]struct {
		Firings  map[string]int64
		Err      string
		Overflow string
	}
	if err := json.Unmarshal(stdout, &got); err != nil {
		t.Fatalf("generated program output: %v\n%s", err, stdout)
	}

	for i, g := range graphs {
		r := got[names[i]]
		if r.Err != "" {
			t.Errorf("%s: RunIteration: %s", names[i], r.Err)
			continue
		}
		want, err := tpdf.Execute(g, nil, tpdf.WithIterations(2))
		if err != nil {
			t.Fatalf("%s: Execute: %v", names[i], err)
		}
		for _, n := range g.Nodes {
			if r.Firings[n.Name] != want.Firings[n.Name] {
				t.Errorf("%s: %s fired %d times in two RunIteration calls, Execute fired it %d times",
					names[i], n.Name, r.Firings[n.Name], want.Firings[n.Name])
			}
		}
	}
	over := got["fig2"].Overflow
	if !strings.Contains(over, overNode+" firing") || !strings.Contains(over, "port "+overPort+" produced 3 payloads, rate is 2") {
		t.Errorf("one payload too many from %s on %s: RunIteration returned %q, Execute %q", overNode, overPort, over, execErr)
	}
}
