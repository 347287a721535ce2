package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// randomCheckpoint builds a structurally consistent checkpoint with random
// shapes and payloads drawn from the codec's supported type set.
func randomCheckpoint(rng *rand.Rand) *engine.Checkpoint {
	nNodes := 1 + rng.Intn(6)
	nEdges := rng.Intn(8)
	ck := &engine.Checkpoint{
		Graph:     fmt.Sprintf("g%d", rng.Intn(100)),
		Completed: rng.Int63n(1 << 40),
		Digest:    rng.Uint64(),
		Params:    map[string]int64{},
		Nodes:     make([]string, nNodes),
		Fired:     make([]int64, nNodes),
		Base:      make([]int64, nNodes),
		EdgeNames: make([]string, nEdges),
		Edges:     make([][]any, nEdges),
	}
	for i := 0; i < rng.Intn(6); i++ {
		ck.Params[fmt.Sprintf("p%d", rng.Intn(10))] = rng.Int63() - rng.Int63()
	}
	for i := range ck.Nodes {
		ck.Nodes[i] = fmt.Sprintf("n%d", i)
		ck.Fired[i] = rng.Int63n(1 << 30)
		ck.Base[i] = rng.Int63n(1 << 30)
	}
	for i := range ck.EdgeNames {
		ck.EdgeNames[i] = fmt.Sprintf("n%d->n%d#%d", rng.Intn(nNodes), rng.Intn(nNodes), i)
		toks := make([]any, rng.Intn(10))
		for j := range toks {
			toks[j] = randomValue(rng, 0)
		}
		ck.Edges[i] = toks
	}
	ck.User = randomValue(rng, 0)
	return ck
}

func randomValue(rng *rand.Rand, depth int) any {
	n := 9
	if depth >= 2 {
		n = 8 // no further nesting
	}
	switch rng.Intn(n) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return int(rng.Int63()) - int(rng.Int63())
	case 3:
		return rng.Int63() - rng.Int63()
	case 4:
		return rng.NormFloat64()
	case 5:
		return strings.Repeat("x", rng.Intn(8)) + fmt.Sprint(rng.Intn(1000))
	case 6:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return b
	case 7:
		v := make([]int64, rng.Intn(6))
		for i := range v {
			v[i] = rng.Int63() - rng.Int63()
		}
		return v
	default:
		v := make([]any, rng.Intn(4))
		for i := range v {
			v[i] = randomValue(rng, depth+1)
		}
		return v
	}
}

// TestCodecRoundTripProperty: random snapshots round-trip with full
// structural and type fidelity, and re-encoding the decoded snapshot is
// byte-identical (deterministic encoding).
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s := &Snapshot{
			SessionID:  fmt.Sprintf("s%d", i),
			Tenant:     fmt.Sprintf("t%d", rng.Intn(5)),
			GraphText:  fmt.Sprintf("graph %d {\n a -> b\n}\n", i),
			Checkpoint: randomCheckpoint(rng),
		}
		enc, err := Encode(nil, s)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.SessionID != s.SessionID || got.Tenant != s.Tenant || got.GraphText != s.GraphText {
			t.Fatalf("identity mismatch: %+v vs %+v", got, s)
		}
		if !reflect.DeepEqual(normalize(got.Checkpoint), normalize(s.Checkpoint)) {
			t.Fatalf("checkpoint mismatch at %d:\n got %#v\nwant %#v", i, got.Checkpoint, s.Checkpoint)
		}
		re, err := Encode(nil, got)
		if err != nil {
			t.Fatalf("re-encode %d: %v", i, err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("re-encode not byte-identical at %d", i)
		}
	}
}

// normalize maps empty slices/maps to a canonical form so DeepEqual
// compares content, not nil-vs-empty representation.
func normalize(ck *engine.Checkpoint) *engine.Checkpoint {
	out := ck.Clone()
	if len(out.Params) == 0 {
		out.Params = nil
	}
	if len(out.Nodes) == 0 {
		out.Nodes, out.Fired, out.Base = nil, nil, nil
	}
	if len(out.EdgeNames) == 0 {
		out.EdgeNames, out.Edges = nil, nil
	}
	for i, e := range out.Edges {
		if len(e) == 0 {
			out.Edges[i] = nil
		}
	}
	out.User = normalizeValue(out.User)
	for i := range out.Edges {
		for j := range out.Edges[i] {
			out.Edges[i][j] = normalizeValue(out.Edges[i][j])
		}
	}
	return out
}

func normalizeValue(v any) any {
	switch x := v.(type) {
	case []byte:
		if len(x) == 0 {
			return []byte{}
		}
	case []int64:
		if len(x) == 0 {
			return []int64{}
		}
	case []any:
		if len(x) == 0 {
			return []any{}
		}
		out := make([]any, len(x))
		for i := range x {
			out[i] = normalizeValue(x[i])
		}
		return out
	}
	return v
}

// TestCodecCorruptionDetectedEverywhere: flipping a bit at every byte
// offset, and truncating to every prefix length, must yield an ErrCorrupt
// (or at minimum an error) — never a silently wrong decode.
func TestCodecCorruptionDetectedEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := &Snapshot{
		SessionID:  "victim",
		Tenant:     "acme",
		GraphText:  "graph g {\n src -> sink\n}\n",
		Checkpoint: randomCheckpoint(rng),
	}
	enc, err := Encode(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc); err != nil {
		t.Fatalf("pristine decode: %v", err)
	}

	for off := 0; off < len(enc); off++ {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x5a
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
	}
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

// TestDecodeGuardsCountPreallocations: a CRC-valid (crafted) frame whose
// count fields lie must be rejected before the decoder preallocates for
// them — a huge params/node/edge hint would otherwise OOM on make().
func TestDecodeGuardsCountPreallocations(t *testing.T) {
	head := func() []byte {
		var b []byte
		b = putString(b, "g")                      // Graph
		b = binary.AppendVarint(b, 1)              // Completed
		b = binary.LittleEndian.AppendUint64(b, 0) // Digest
		return append(b, 0)                        // reserved
	}
	params := binary.AppendUvarint(head(), 1<<40) // params count: absurd
	if _, err := decodeCheckpoint(params); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge param count not rejected: %v", err)
	}
	// A slice count is the sharper case: make([]T, 1<<40) panics where a
	// map hint is merely ignored.
	nodes := binary.AppendUvarint(binary.AppendUvarint(head(), 0), 1<<40)
	if _, err := decodeCheckpoint(nodes); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge node count not rejected: %v", err)
	}
}

func TestCodecRejectsUnsupportedPayload(t *testing.T) {
	ck := randomCheckpoint(rand.New(rand.NewSource(3)))
	ck.User = make(chan int)
	_, err := Encode(nil, &Snapshot{SessionID: "s", Checkpoint: ck})
	if err == nil || !strings.Contains(err.Error(), "unsupported payload type") {
		t.Fatalf("want unsupported-type error, got %v", err)
	}
}

func testSnapshot(seed int64, completed int64) *Snapshot {
	ck := randomCheckpoint(rand.New(rand.NewSource(seed)))
	ck.Completed = completed
	return &Snapshot{SessionID: "s1", Tenant: "t", GraphText: "graph g {}\n", Checkpoint: ck}
}

// TestStoreFallbackToPreviousValid: when the newest record in the log is
// torn or corrupted, LoadNewest counts it and returns the previous valid one.
func TestStoreFallbackToPreviousValid(t *testing.T) {
	st, err := Open(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := st.Session("s1")
	if err != nil {
		t.Fatal(err)
	}
	good := testSnapshot(10, 7)
	encGood, _ := Encode(nil, good)
	if _, err := ss.Write(encGood); err != nil {
		t.Fatal(err)
	}
	encBad, _ := Encode(nil, testSnapshot(11, 9))
	if _, err := ss.Write(encBad); err != nil {
		t.Fatal(err)
	}

	// Torn write: truncate the log in the middle of the newest record.
	if err := os.Truncate(ss.path, int64(len(encGood)+len(encBad)/2)); err != nil {
		t.Fatal(err)
	}
	snap, discarded, err := st.LoadNewest("s1")
	if err != nil {
		t.Fatalf("load after truncation: %v", err)
	}
	if discarded != 1 || snap.Checkpoint.Completed != 7 {
		t.Fatalf("want fallback to completed=7 with 1 discard, got completed=%d discarded=%d", snap.Checkpoint.Completed, discarded)
	}

	// Bit rot: full-length record, one flipped byte.
	mut := append([]byte(nil), encBad...)
	mut[len(mut)/2] ^= 0xff
	if err := os.WriteFile(ss.path, append(append([]byte(nil), encGood...), mut...), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, discarded, err = st.LoadNewest("s1")
	if err != nil || discarded != 1 || snap.Checkpoint.Completed != 7 {
		t.Fatalf("want fallback after bit rot, got snap=%v discarded=%d err=%v", snap, discarded, err)
	}

	// A record whose frames verify but whose state does not decode.
	crafted := append([]byte(nil), magic...)
	for _, payload := range [][]byte{putString(putString(putString(nil, "s1"), "t"), ""), []byte("not a checkpoint")} {
		crafted = binary.LittleEndian.AppendUint32(crafted, uint32(len(payload)))
		crafted = binary.LittleEndian.AppendUint32(crafted, crc32.ChecksumIEEE(payload))
		crafted = append(crafted, payload...)
	}
	if err := os.WriteFile(ss.path, append(append([]byte(nil), encGood...), crafted...), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, discarded, err = st.LoadNewest("s1")
	if err != nil || discarded != 1 || snap.Checkpoint.Completed != 7 {
		t.Fatalf("want fallback past an undecodable record, got snap=%v discarded=%d err=%v", snap, discarded, err)
	}
}

func TestStoreNoSnapshotVsAllCorrupt(t *testing.T) {
	st, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LoadNewest("ghost"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
	ss, _ := st.Session("junk")
	enc, _ := Encode(nil, testSnapshot(1, 1))
	ss.Write(enc)
	ss.Close()
	if err := os.WriteFile(ss.path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LoadNewest("junk"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty log: want ErrNoSnapshot, got %v", err)
	}
	if err := os.WriteFile(ss.path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, discarded, err := st.LoadNewest("junk")
	if err == nil || errors.Is(err, ErrNoSnapshot) || discarded != 1 {
		t.Fatalf("want hard error with 1 discard, got discarded=%d err=%v", discarded, err)
	}
}

// logCompleted decodes every record of a session's log, in order.
func logCompleted(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, sp := range scan(data) {
		snap, err := Decode(data[sp.off:sp.end])
		if err != nil {
			t.Fatalf("record at %d: %v", sp.off, err)
		}
		got = append(got, snap.Checkpoint.Completed)
	}
	return got
}

func TestStoreRetentionAndTmpSweep(t *testing.T) {
	dir := t.TempDir()
	const keep = 2
	st, err := Open(dir, keep)
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := st.Session("s1")
	// The append after keep+rollEvery records rolls the log down to its
	// newest keep first.
	total := int64(keep + rollEvery + 3)
	for i := int64(1); i <= total; i++ {
		enc, _ := Encode(nil, testSnapshot(i, i))
		if _, err := ss.Write(enc); err != nil {
			t.Fatal(err)
		}
	}
	want := []int64{total - 4, total - 3, total - 2, total - 1, total}
	if got := logCompleted(t, ss.path); !reflect.DeepEqual(got, want) {
		t.Fatalf("retention: log holds %v, want %v", got, want)
	}
	snap, _, err := st.LoadNewest("s1")
	if err != nil || snap.Checkpoint.Completed != total {
		t.Fatalf("want newest completed=%d, got %v err=%v", total, snap, err)
	}
	ss.Close()

	// A crash mid-roll leaves log.tmp; the next writer's open sweeps it and
	// appends after the log's last record.
	tmp := ss.path + tmpSuffix
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, keep)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := st2.Sessions()
	if err != nil || len(ids) != 1 || ids[0] != "s1" {
		t.Fatalf("sessions scan: %v %v", ids, err)
	}
	ss2, err := st2.Session("s1")
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := Encode(nil, testSnapshot(total+1, total+1))
	if _, err := ss2.Write(enc); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp file not swept: %v", err)
	}
	snap, _, err = st2.LoadNewest("s1")
	if err != nil || snap.Checkpoint.Completed != total+1 {
		t.Fatalf("post-reopen newest: %v err=%v", snap, err)
	}

	// Remove closes the log the write left open before deleting it.
	if err := st2.Remove("s1"); err != nil {
		t.Fatal(err)
	}
	if n := openFDs(dir); n != 0 {
		t.Fatalf("%d descriptors still open on the store after Remove", n)
	}
	ids, _ = st2.Sessions()
	if len(ids) != 0 {
		t.Fatalf("remove left sessions: %v", ids)
	}
}

func TestWriterPersistsNewestAndFlushes(t *testing.T) {
	st, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := st.Session("s1")
	var mu sync.Mutex
	var events []PersistEvent
	w := NewWriter(ss, "s1", "acme", "graph g {}\n", 2, func(ev PersistEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	base := testSnapshot(20, 0).Checkpoint
	for i := int64(1); i <= 5; i++ {
		base.Completed = i
		w.Offer(base)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := st.LoadNewest("s1")
	if err != nil || snap.Checkpoint.Completed != 5 {
		t.Fatalf("flush did not persist newest: %v err=%v", snap, err)
	}
	if snap.SessionID != "s1" || snap.Tenant != "acme" || snap.GraphText != "graph g {}\n" {
		t.Fatalf("identity not carried: %+v", snap)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no persist events observed")
	}
	for _, ev := range events {
		if ev.Err != nil || ev.Bytes == 0 || ev.Dur <= 0 {
			t.Fatalf("bad event %+v", ev)
		}
	}
}

// TestWriterDetachesIntSliceUser: serve's snapshot hook reuses one []int64
// across captures; the writer must deep-copy it so a mutation after Offer
// cannot leak into the persisted bytes.
func TestWriterDetachesIntSliceUser(t *testing.T) {
	st, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := st.Session("s1")
	w := NewWriter(ss, "s1", "", "graph g {}\n", 1, nil)
	defer w.Close()
	ck := testSnapshot(30, 3).Checkpoint
	shared := []int64{1, 2, 3}
	ck.User = shared
	w.Offer(ck)
	shared[0] = 99 // engine reuses the slice at the next barrier
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := st.LoadNewest("s1")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := snap.Checkpoint.User.([]int64)
	if !ok || got[0] != 1 {
		t.Fatalf("user state aliased the shared slice: %v", snap.Checkpoint.User)
	}
}

// TestWriterDetachesAllMutableUserTypes: the detach guarantee covers the
// whole codec-supported type set, not just []int64 — a snapshot hook may
// reuse a []byte, []any, or nested buffer across barriers, and the
// background encoder must never read memory the engine is rewriting.
func TestWriterDetachesAllMutableUserTypes(t *testing.T) {
	st, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := st.Session("s1")
	w := NewWriter(ss, "s1", "", "graph g {}\n", 1, nil)
	defer w.Close()
	ck := testSnapshot(31, 0).Checkpoint

	sharedBytes := []byte{1, 2, 3}
	nestedInts := []int64{7, 8}
	sharedAny := []any{sharedBytes, nestedInts, "ok", int64(5)}
	ck.User = sharedAny
	w.Offer(ck)
	// The engine rewrites every level of the buffer at the next barrier.
	sharedBytes[0] = 99
	nestedInts[0] = 99
	sharedAny[2] = "mutated"
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := st.LoadNewest("s1")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := snap.Checkpoint.User.([]any)
	if !ok {
		t.Fatalf("user state type: %T", snap.Checkpoint.User)
	}
	if b, _ := got[0].([]byte); len(b) == 0 || b[0] != 1 {
		t.Fatalf("[]byte element aliased the shared buffer: %v", got[0])
	}
	if v, _ := got[1].([]int64); len(v) == 0 || v[0] != 7 {
		t.Fatalf("nested []int64 aliased the shared buffer: %v", got[1])
	}
	if got[2] != "ok" {
		t.Fatalf("[]any aliased the shared buffer: %v", got[2])
	}
}

// TestWriterFlushReportsBackgroundError: a failed background persist must
// surface on the next Flush even when nothing new is pending, so a pump
// ack never claims durability that did not happen.
func TestWriterFlushReportsBackgroundError(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := st.Session("s1")
	failed := make(chan struct{}, 1)
	w := NewWriter(ss, "s1", "", "graph g {}\n", 1, func(ev PersistEvent) {
		if ev.Err != nil {
			select {
			case failed <- struct{}{}:
			default:
			}
		}
	})
	defer w.Close()

	// Replace the session directory with a plain file so the next persist
	// fails (ENOTDIR), even as root.
	sessDir := filepath.Join(dir, "s1")
	if err := os.RemoveAll(sessDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sessDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck := testSnapshot(40, 4).Checkpoint
	w.Offer(ck)
	select {
	case <-failed:
	case <-time.After(2 * time.Second):
		t.Fatal("background persist did not fail")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("flush swallowed the background persist error")
	}
	// Recovery: once the directory is back a fresh offer clears it.
	if err := os.Remove(sessDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(sessDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ck.Completed = 5
	w.Offer(ck)
	if err := w.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
}

// TestWriterOfferAllocationFree: once the double buffer is warm, Offer on
// the barrier path must not allocate — the engine's 0 allocs/op guarantee
// extends through durable persistence.
func TestWriterOfferAllocationFree(t *testing.T) {
	st, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ss, _ := st.Session("s1")
	// Cadence larger than the trial count: measures the pure buffer path,
	// with no background persist racing the allocation counter.
	w := NewWriter(ss, "s1", "t", "graph g {}\n", 1<<30, nil)
	defer w.Close()
	ck := testSnapshot(50, 0).Checkpoint
	ck.User = []int64{1, 2, 3, 4}
	w.Offer(ck)
	w.Offer(ck) // warm both buffer sides
	w.Offer(ck)
	avg := testing.AllocsPerRun(200, func() {
		ck.Completed++
		w.Offer(ck)
	})
	if avg > 0 {
		t.Fatalf("Offer allocates %v allocs/op, want 0", avg)
	}
}
