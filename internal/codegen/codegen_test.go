package codegen

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/symb"
)

// parseGenerated parses and fully type-checks the generated source (it
// imports only fmt). TestGeneratedCodeRunsLikeExecute in package tpdf
// builds and runs it.
func parseGenerated(t *testing.T, src string) *ast.File {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "generated.go", src, parser.AllErrors)
	if err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check(f.Name.Name, fset, []*ast.File{f}, nil); err != nil {
		t.Fatalf("generated code does not type-check: %v\n%s", err, src)
	}
	return f
}

// bind lowers g at env the way tpdf.GenerateCode does.
func bind(t *testing.T, g *core.Graph, env symb.Env) *core.Program {
	t.Helper()
	prog, err := core.Bind(g, env)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestGenerateFig2Parses(t *testing.T) {
	src, err := Generate(bind(t, apps.Fig2(), symb.Env{"p": 2}))
	if err != nil {
		t.Fatal(err)
	}
	f := parseGenerated(t, src)
	if f.Name.Name != "schedule" {
		t.Errorf("package = %q", f.Name.Name)
	}
	// RunIteration and the support runtime must be present.
	found := map[string]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			found[fd.Name.Name] = true
		}
	}
	for _, want := range []string{"RunIteration", "fire", "appendN", "errUnderflow"} {
		if !found[want] {
			t.Errorf("generated code missing func %s", want)
		}
	}
}

func TestGenerateOFDM(t *testing.T) {
	src, err := Generate(bind(t, apps.OFDMTPDF(apps.OFDMParams{Beta: 2, M: 4, N: 8, L: 1}), nil))
	if err != nil {
		t.Fatal(err)
	}
	parseGenerated(t, src)
	// Every actor appears in firing comments; schedule metadata recorded.
	for _, name := range []string{"SRC", "RCP", "FFT", "DUP", "TRAN", "SNK", "Repetition vector", "Schedule:"} {
		if !strings.Contains(src, name) {
			t.Errorf("generated code missing %q", name)
		}
	}
}

func TestGenerateScheduleOrderMatchesDependencies(t *testing.T) {
	// In the generated source, a producer's firing block must appear before
	// its consumer's.
	g := core.NewGraph("chain")
	a := g.AddKernel("alpha")
	b := g.AddKernel("beta")
	if _, err := g.Connect(a, "[1]", b, "[1]", 0); err != nil {
		t.Fatal(err)
	}
	src, err := Generate(bind(t, g, nil))
	if err != nil {
		t.Fatal(err)
	}
	pa := strings.Index(src, "// alpha firing 1")
	pb := strings.Index(src, "// beta firing 1")
	if pa < 0 || pb < 0 || pa > pb {
		t.Errorf("firing order wrong: alpha at %d, beta at %d", pa, pb)
	}
}

func TestGenerateDeadlockedGraphFails(t *testing.T) {
	if _, err := Generate(bind(t, apps.Fig4Deadlocked(), symb.Env{"p": 1})); err == nil {
		t.Fatal("deadlocked graph must not generate a schedule")
	}
}
