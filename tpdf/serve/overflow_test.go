package serve

import (
	"errors"
	"net/http"
	"testing"

	"repro/internal/rat"
	"repro/tpdf"
)

// overflowSrc parses and compiles, but its balance equations need
// coefficients beyond int64 (4000000007·4000000009·4000000011·p²).
const overflowSrc = `graph ovf {
  param p = 1 range 1..2;
  kernel A exec 1;
  kernel B exec 1;
  kernel C exec 1;
  kernel D exec 1;
  edge e1: A [4000000007*p] -> [1] B;
  edge e2: B [4000000009] -> [1] C;
  edge e3: C [4000000011*p] -> [1] D;
}`

// TestCacheHoldsAnalysisOverflow: symbolic coefficient overflow used to
// panic out of ProgramCache.Get's sync.Once, leaving a "done" entry whose
// second Get returned a nil report with a nil error. It is now an error
// the entry holds, the same on every lookup.
func TestCacheHoldsAnalysisOverflow(t *testing.T) {
	g, err := tpdf.Parse(overflowSrc)
	if err != nil {
		t.Fatal(err)
	}
	c := NewProgramCache(4)
	var first string
	for i := 0; i < 3; i++ {
		compiled, rep, err := c.Get(g)
		if err == nil || compiled != nil || rep != nil {
			t.Fatalf("Get #%d = (%v, %v, %v), want only an error", i+1, compiled, rep, err)
		}
		if !errors.Is(err, rat.ErrOverflow) || !errors.Is(err, ErrNotAdmissible) {
			t.Fatalf("Get #%d error %q does not wrap rat.ErrOverflow and ErrNotAdmissible", i+1, err)
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("Get #%d error %q, first was %q", i+1, err, first)
		}
	}
	if st := c.Stats(); st.Compiles != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want one compile of one resident entry", st)
	}
}

func TestHTTPAnalysisOverflowIs422(t *testing.T) {
	srv, ts := testServer(t, Config{})
	spec := GraphSpec{Source: overflowSrc}
	for i := 0; i < 2; i++ {
		var er errorResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/analyze", analyzeRequest{Graph: spec}, &er); code != http.StatusUnprocessableEntity {
			t.Fatalf("analyze #%d status = %d (%q), want 422", i+1, code, er.Error)
		}
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", openRequest{Graph: spec}, &er); code != http.StatusUnprocessableEntity {
			t.Fatalf("open #%d status = %d (%q), want 422", i+1, code, er.Error)
		}
	}
	if n := len(srv.Manager().Sessions()); n != 0 {
		t.Errorf("%d sessions open after refused admissions", n)
	}
}
