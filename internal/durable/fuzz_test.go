package durable

import (
	"testing"

	"repro/internal/engine"
)

// fuzzSeedSnapshot builds one representative snapshot covering every
// codec value tag, for seeding the decoder fuzzer with valid frames.
func fuzzSeedSnapshot() *Snapshot {
	return &Snapshot{
		SessionID: "s1",
		Tenant:    "acme",
		GraphText: "graph g {\n  kernel a;\n}\n",
		Checkpoint: &engine.Checkpoint{
			Graph:     "g",
			Completed: 3,
			Digest:    7,
			Params:    map[string]int64{"p": 2},
			Nodes:     []string{"a", "b"},
			Fired:     []int64{3, 6},
			Base:      []int64{1, 2},
			EdgeNames: []string{"e1"},
			Edges: [][]any{{
				nil, true, int(4), int64(5), 3.5, "tok", []byte{1, 2},
				[]int64{9, 8}, []any{int64(1), "x"},
			}},
			User: []any{[]int64{1, 2, 3}},
		},
	}
}

// FuzzDecode holds the snapshot decoder to its contract under arbitrary
// bytes: it returns an error — never panics, never runs away allocating —
// and anything it does accept must survive re-encoding. The seed corpus
// is a full valid encoding plus truncations and bit flips of it
// (committed under testdata/fuzz/FuzzDecode).
func FuzzDecode(f *testing.F) {
	valid, err := Encode(nil, fuzzSeedSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{0, 1, 7, 8, 12, len(valid) / 2, len(valid) - 1} {
		if cut <= len(valid) {
			f.Add(append([]byte(nil), valid[:cut]...))
		}
	}
	for _, flip := range []int{0, 8, 16, len(valid) / 2, len(valid) - 5} {
		if flip < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[flip] ^= 0x40
			f.Add(mut)
		}
	}
	f.Add([]byte("TPDFCK\x00\x01"))
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("Decode returned nil snapshot and nil error")
		}
		if _, err := Encode(nil, s); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
	})
}
