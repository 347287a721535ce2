package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRegistrySnapshotIsDeepCopy(t *testing.T) {
	r := NewRegistry()
	r.UpdateEngine(func(s *EngineSnapshot) {
		s.Completed = 3
		s.Actors = append(s.Actors[:0], ActorMetrics{Name: "A", Firings: 7})
		s.Edges = append(s.Edges[:0], EdgeMetrics{Name: "A->B", Capacity: 4})
	})
	snap := r.EngineSnapshot()
	snap.Actors[0].Firings = 999
	snap.Edges[0].Capacity = 999
	again := r.EngineSnapshot()
	if again.Actors[0].Firings != 7 || again.Edges[0].Capacity != 4 {
		t.Fatalf("snapshot aliased registry state: %+v", again)
	}
	if again.Completed != 3 {
		t.Fatalf("Completed = %d, want 3", again.Completed)
	}
}

func TestParamsDigest(t *testing.T) {
	a := ParamsDigest(map[string]int64{"p": 2, "q": 5})
	b := ParamsDigest(map[string]int64{"q": 5, "p": 2})
	if a != b {
		t.Fatalf("digest is order-dependent: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("digest of a non-empty valuation is zero")
	}
	c := ParamsDigest(map[string]int64{"p": 3, "q": 5})
	if c == a {
		t.Fatalf("digest did not change with a value change")
	}
	if ParamsDigest(nil) != 0 {
		t.Fatal("digest of nil valuation should be 0")
	}
	// Allocation-free: safe on the engine's barrier path.
	env := map[string]int64{"p": 2, "q": 5, "r": 9}
	if allocs := testing.AllocsPerRun(100, func() { ParamsDigest(env) }); allocs > 0 {
		t.Fatalf("ParamsDigest allocates: %v allocs/op", allocs)
	}
}

// TestJournalBoundAndOrder: the registry's record ring keeps the newest
// traceCap records, oldest first.
func TestJournalBoundAndOrder(t *testing.T) {
	r := NewRegistry()
	for i := int64(1); i <= traceCap+6; i++ {
		r.Record(Event{TimeUnixNano: i, Kind: EvDrain, Completed: i})
	}
	evs := r.Events()
	if len(evs) != traceCap {
		t.Fatalf("%d events retained, want %d", len(evs), traceCap)
	}
	for i, e := range evs {
		if want := int64(7 + i); e.Completed != want {
			t.Fatalf("event %d Completed = %d, want %d (newest %d, oldest first)", i, e.Completed, want, traceCap)
		}
	}
}

// TestRecordSumsTotals: the boundary totals are sums of the records, and
// they keep counting after the ring wraps.
func TestRecordSumsTotals(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		r.Record(Event{Kind: EvRebind, DurNs: 3, Detail: RowBuilt},
			Event{Kind: EvRebind, DurNs: 2, Detail: "row=hit"},
			Event{Kind: EvBarrier, DurNs: 10},
			Event{Kind: EvAbort}, Event{Kind: EvRestore}, Event{Kind: EvPersist, DurNs: 99})
	}
	s := r.EngineSnapshot()
	want := EngineSnapshot{Barriers: 100, Rebinds: 200, RowsBuilt: 100, RebindNs: 500, BoundaryNs: 1000, Aborts: 100, Restores: 100}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("totals %+v, want %+v", s, want)
	}
}

func TestJournalRecordDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	ev := Event{TimeUnixNano: 1, Kind: EvBarrier, Completed: 1, Detail: "static"}
	if allocs := testing.AllocsPerRun(200, func() { r.Record(ev) }); allocs > 0 {
		t.Fatalf("Record allocates: %v allocs/op", allocs)
	}
}

func TestJournalChromeTraceIsValidJSON(t *testing.T) {
	r := NewRegistry()
	base := time.Now().UnixNano()
	r.Record(Event{TimeUnixNano: base, Kind: EvRunStart})
	r.Record(Event{TimeUnixNano: base + 2e6, Kind: EvBarrier, Completed: 1, DurNs: 1e6})
	r.Record(Event{TimeUnixNano: base + 3e6, Kind: EvRebind, Completed: 1, DurNs: 5e5, ParamsDigest: 0xabcd, Detail: `quote"and\slash`})
	r.Record(Event{TimeUnixNano: base + 4e6, Kind: EvRunEnd, Completed: 2})
	var sb strings.Builder
	if err := r.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[1]["ph"] != "X" || evs[0]["ph"] != "i" {
		t.Fatalf("phases wrong: %v / %v", evs[0]["ph"], evs[1]["ph"])
	}
	if evs[2]["name"] != "rebind" {
		t.Fatalf("name = %v, want rebind", evs[2]["name"])
	}
}

// TestChromeTraceEncodesAnyDetail: a Detail carries node names (any string
// the builder accepts), stall reports and error texts, so control bytes and
// invalid UTF-8 must still make valid JSON, and the text must come back.
// Go's %q spelling of these (\x00, \v, \xff) is not JSON.
func TestChromeTraceEncodesAnyDetail(t *testing.T) {
	details := []string{"nul\x00byte", "tab\vvertical", "bell\a", "bad\xffutf8", "<&>\u2028", "ok"}
	r := NewRegistry()
	for i, d := range details {
		r.Record(Event{TimeUnixNano: int64(i + 1), Kind: EvStall, Detail: d})
	}
	var sb strings.Builder
	if err := r.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatalf("trace is not valid JSON:\n%s", sb.String())
	}
	var evs []struct {
		Args struct {
			Detail string `json:"detail"`
		} `json:"args"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatal(err)
	}
	for i, d := range details {
		if want := strings.ToValidUTF8(d, "\uFFFD"); evs[i].Args.Detail != want {
			t.Errorf("detail %d came back %q, want %q", i, evs[i].Args.Detail, want)
		}
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond) // bucket le=0.001
	h.Observe(5 * time.Millisecond)   // bucket le=0.01
	h.Observe(2 * time.Second)        // +Inf
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Family("lat", "latency", "histogram")
	p.Histo("lat", []Label{{"endpoint", "pump"}}, h)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_bucket{endpoint="pump",le="0.001"} 1`,
		`lat_bucket{endpoint="pump",le="0.01"} 2`,
		`lat_bucket{endpoint="pump",le="+Inf"} 3`,
		`lat_count{endpoint="pump"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if n, err := ValidateExposition(out); err != nil || n != 5 {
		t.Fatalf("ValidateExposition = %d, %v\n%s", n, err, out)
	}
}

func TestPromWriterEscaping(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Family("m", "a metric", "gauge")
	p.Int("m", []Label{{"graph", `pipe"v\1`}}, 7)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `m{graph="pipe\"v\\1"} 7`) {
		t.Fatalf("bad escaping:\n%s", sb.String())
	}
	if _, err := ValidateExposition(sb.String()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"# BOGUS comment style\n",
		"1leading_digit 3\n",
		"m{unterminated 3\n",
		"m not-a-number\n",
	} {
		if _, err := ValidateExposition(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
	if n, err := ValidateExposition("m 3.5\nm2{a=\"b\"} +Inf 123\n# HELP m x\n"); err != nil || n != 2 {
		t.Fatalf("got %d, %v", n, err)
	}
}
