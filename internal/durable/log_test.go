package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
)

// smallRecord encodes a minimal snapshot whose size varies with pad, so a
// log of a few records stays short enough to cut at every byte offset.
func smallRecord(t *testing.T, completed int64, pad int) []byte {
	t.Helper()
	enc, err := Encode(nil, &Snapshot{
		SessionID:  "s1",
		Checkpoint: &engine.Checkpoint{Completed: completed, User: strings.Repeat("u", pad)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// testLog is four records back to back and where each one ends — the
// record boundaries as written, not as any scanner finds them. Record i
// has Completed i+1.
func testLog(t *testing.T) (log []byte, ends []int) {
	for i := 0; i < 4; i++ {
		log = append(log, smallRecord(t, int64(i+1), 7*i)...)
		ends = append(ends, len(log))
	}
	return log, ends
}

// TestLogTornTailProperty cuts a log at every byte offset. After each cut,
// LoadNewest returns the newest record lying wholly before the cut, leaves
// the file as it found it, and discards exactly one stretch when the cut
// falls mid-record; a writer reopening the log then truncates the partial
// record and appends right after the last whole one, and the next load
// returns the new record.
func TestLogTornTailProperty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s1", logName)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	log, ends := testLog(t)
	fresh := smallRecord(t, 100, 3)
	for cut := 0; cut <= len(log); cut++ {
		whole, wholeEnd := 0, 0
		for whole < len(ends) && ends[whole] <= cut {
			wholeEnd = ends[whole]
			whole++
		}
		mid := cut != wholeEnd
		if err := os.WriteFile(path, log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		snap, discarded, err := st.LoadNewest("s1")
		switch {
		case whole > 0:
			if err != nil || snap.Checkpoint.Completed != int64(whole) || discarded != b2i(mid) {
				t.Fatalf("cut %d: got snap=%v discarded=%d err=%v, want completed=%d discarded=%d",
					cut, snap, discarded, err, whole, b2i(mid))
			}
		case mid:
			if err == nil || errors.Is(err, ErrNoSnapshot) || discarded != 1 {
				t.Fatalf("cut %d inside the first record: discarded=%d err=%v, want a hard error and 1 discard", cut, discarded, err)
			}
		default:
			if !errors.Is(err, ErrNoSnapshot) {
				t.Fatalf("cut %d: empty log gave %v, want ErrNoSnapshot", cut, err)
			}
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, log[:cut]) {
			t.Fatalf("cut %d: LoadNewest modified the log", cut)
		}

		ss, err := st.Session("s1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.Write(fresh); err != nil {
			t.Fatalf("cut %d: write after reopen: %v", cut, err)
		}
		ss.Close()
		want := append(append([]byte(nil), log[:wholeEnd]...), fresh...)
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: log after reopen+write is %d bytes, want the %d whole bytes plus the new record (%d)",
				cut, len(got), wholeEnd, len(want))
		}
		snap, discarded, err = st.LoadNewest("s1")
		if err != nil || snap.Checkpoint.Completed != 100 || discarded != 0 {
			t.Fatalf("cut %d: load after write: snap=%v discarded=%d err=%v", cut, snap, discarded, err)
		}
	}
}

// TestLogBitFlipProperty flips each byte of a log in turn: the load
// returns the newest record the flip did not touch, and discards one
// stretch exactly when that record is not the newest written.
func TestLogBitFlipProperty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s1", logName)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	log, ends := testLog(t)
	st, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := len(ends) - 1
	for off := range log {
		hit := 0 // the record holding off
		for ends[hit] <= off {
			hit++
		}
		mut := append([]byte(nil), log...)
		mut[off] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		want, wantDiscarded := int64(last+1), 0
		if hit == last {
			want, wantDiscarded = int64(last), 1
		}
		snap, discarded, err := st.LoadNewest("s1")
		if err != nil || snap.Checkpoint.Completed != want || discarded != wantDiscarded {
			t.Fatalf("flip at %d (record %d): snap=%v discarded=%d err=%v, want completed=%d discarded=%d",
				off, hit, snap, discarded, err, want, wantDiscarded)
		}
	}
}

// TestLogFailedAppendRepairs: a write into a session directory that was
// moved away, with another directory holding another log put in its place,
// fails, since its file is no longer the log at its path. With the
// directory back and a half record appended by hand — what a short write
// leaves — the next write truncates the half record and lands as the
// newest, with nothing discarded.
func TestLogFailedAppendRepairs(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := st.Session("s1")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2; i++ {
		if _, err := ss.Write(smallRecord(t, i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	sess := filepath.Join(dir, "s1")
	moved := sess + ".moved"
	if err := os.Rename(sess, moved); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(sess, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ss.path, smallRecord(t, 1, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Write(smallRecord(t, 3, 0)); err == nil {
		t.Fatal("a write to a moved log was reported durable")
	}

	if err := os.RemoveAll(sess); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(moved, sess); err != nil {
		t.Fatal(err)
	}
	half := smallRecord(t, 4, 9)
	f, err := os.OpenFile(ss.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(half[:len(half)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := ss.Write(smallRecord(t, 5, 0)); err != nil {
		t.Fatalf("write after repair: %v", err)
	}
	snap, discarded, err := st.LoadNewest("s1")
	if err != nil || snap.Checkpoint.Completed != 5 || discarded != 0 {
		t.Fatalf("after repair: snap=%v discarded=%d err=%v, want completed=5 and no discard", snap, discarded, err)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// openFDs counts this process's descriptors open on files under dir,
// deleted ones included; 0 where /proc is absent.
func openFDs(dir string) (n int) {
	ents, _ := os.ReadDir("/proc/self/fd")
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}
