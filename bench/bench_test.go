package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/tpdf"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// quickRun runs the command with -quick and returns the decoded result
// line, which must be the last line of its standard output.
func quickRun(t *testing.T, workload, trace string) result {
	t.Helper()
	var out bytes.Buffer
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	if code := run([]string{"-workload", workload, "-quick", "-seed", "3", "-trace", trace, "-trace-out", traceFile}, &out); code != 0 {
		t.Fatalf("%s -trace %s: exit code %d", workload, trace, code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s -trace %s: last line %q: %v", workload, trace, lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s -trace %s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// checkNames requires the printed metrics to be exactly the spec's, name
// and unit.
func checkNames(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s is in BENCHMARK.json but was not printed", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s printed with unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", what, name)
		}
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: printed but not in BENCHMARK.json: %v", what, extra)
	}
}

// TestNamesMatchSpec runs every workload end to end and traced in -quick
// shape and holds what it prints to BENCHMARK.json.
func TestNamesMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	table := workloads()
	if len(spec.Workloads) != len(table) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(table))
	}
	for i, w := range table {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is outside [A-Za-z0-9_.-]", w.name)
		}
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("BENCHMARK.json metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
	}
	for _, w := range table {
		t.Run(w.name, func(t *testing.T) {
			checkNames(t, w.name+" end-to-end", quickRun(t, w.name, "0").Metrics, spec.EndToEnd)
			checkNames(t, w.name+" traced", quickRun(t, w.name, "1").Metrics, spec.PerLayer)
		})
	}
}

// opStreamHash hashes the first n ops of a workload's stream for a seed.
func opStreamHash(t *testing.T, w workload, seed int64, n int) uint64 {
	t.Helper()
	pl, err := w.prepare(seed)
	if err != nil {
		t.Fatalf("%s: prepare(%d): %v", w.name, seed, err)
	}
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		io.WriteString(h, pl.opKey(i))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// TestSeedFixesOpStream: two runs with one seed issue byte-identical op
// sequences; where the seed drives the inputs, another seed issues
// another sequence.
func TestSeedFixesOpStream(t *testing.T) {
	const ops = 3000 // past one full round of every workload's cycle
	for _, w := range workloads() {
		a, b := opStreamHash(t, w, 11, ops), opStreamHash(t, w, 11, ops)
		if a != b {
			t.Errorf("%s: seed 11 gave op-stream hashes %x and %x", w.name, a, b)
		}
		// stream-steady has no seeded input: its three graphs are fixed.
		if c := opStreamHash(t, w, 12, ops); w.name != "stream-steady" && c == a {
			t.Errorf("%s: seeds 11 and 12 gave the same op stream", w.name)
		}
	}
}

// TestChecksCatchWrongOutput feeds the output checks wrong answers: a
// check that cannot fail would make "correct" meaningless.
func TestChecksCatchWrongOutput(t *testing.T) {
	jobs, err := steadyJobs(4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := setupJob(nil, jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.stream(nil, tpdf.WithIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRun("pipe", res, r.sunk, r.job.wantFirings, r.job.wantSunk); err != nil {
		t.Errorf("right output rejected: %v", err)
	}
	if err := checkRun("pipe", res, r.sunk+1, r.job.wantFirings, r.job.wantSunk); err == nil {
		t.Error("a wrong sink total passed")
	}
	res.Firings["SNK"]++
	if err := checkRun("pipe", res, r.sunk, r.job.wantFirings, r.job.wantSunk); err == nil {
		t.Error("a wrong firing count passed")
	}

	ap, err := newAnalysisPlan(1)
	if err != nil {
		t.Fatal(err)
	}
	want := &analysisOutput{graphs: []analyzed{{name: "g", bounded: true}}, points: map[[2]int64]int64{{1, 32}: 5}, minCaps: []int64{1}, makespan: 7, firings: 11}
	got := &analysisOutput{graphs: []analyzed{{name: "g", bounded: true}}, points: map[[2]int64]int64{{1, 32}: 6}, minCaps: []int64{1}, makespan: 7, firings: 11}
	if err := want.equal(want); err != nil {
		t.Errorf("equal outputs rejected: %v", err)
	}
	if err := got.equal(want); err == nil {
		t.Error("a wrong sweep point passed")
	}
	if err := got.checkClosedForms(); err == nil {
		t.Error("a sweep point off the paper's closed form passed")
	}
	if len(ap.grid) != len(sweepBetas)*len(sweepNs) {
		t.Errorf("grid has %d points, want %d", len(ap.grid), len(sweepBetas)*len(sweepNs))
	}

	fp, err := newFleetPlan(1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := openFleet(nil, fp, "")
	if err != nil {
		t.Fatal(err)
	}
	defer f.close() //nolint:errcheck // the checks below are the test
	if err := f.pumpChecked(nil, f.cl, 0); err != nil {
		t.Errorf("right ack rejected: %v", err)
	}
	f.acked[0]++ // as if the server had lost a pump
	if err := f.pumpChecked(nil, f.cl, 0); err == nil {
		t.Error("an ack one pump short passed")
	}
}
