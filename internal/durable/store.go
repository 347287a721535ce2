package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// ErrNoSnapshot reports a session holding no snapshot at all — no log, or
// an empty one — distinct from a log whose records are all corrupt, which
// is an error.
var ErrNoSnapshot = errors.New("durable: no snapshot")

// Each session's records live in one file, <root>/<id>/log. A rewrite (the
// roll, or the repair of a torn tail) builds its replacement under log.tmp;
// one a crash left behind is swept when the log is next opened for writing.
const (
	logName   = "log"
	tmpSuffix = ".tmp"
	// rollEvery is how many appends a log takes past its keep before it is
	// rewritten as its newest keep records.
	rollEvery = 64
)

// Store is the on-disk snapshot root: one subdirectory per session, each
// holding one append-only log of Encode records. A durable cut is one
// append to a kept-open file and one fsync. Before an append is reported
// durable the store checks that the file it went to is still the one at
// the log's path, so a directory removed or replaced under an open file
// fails the write instead of swallowing it. A torn tail — a crash
// mid-append — is detected by the CRC framing: readers skip it, and the
// next writer rewrites the log without it. That rewrite is also the
// retention roll, run every rollEvery appends to keep the newest keep
// records, and it follows the crash-safe discipline (write log.tmp, fsync,
// rename over the log, fsync the directory), so a crash at any instant
// leaves the old log or the new one, each ending with the newest record.
type Store struct {
	dir  string
	keep int

	mu       sync.Mutex
	sessions map[string]*SessionStore
}

// Open creates (if needed) and opens the snapshot root. keepLast is the
// number of records per session a roll keeps; values < 1 are clamped to 1.
func Open(dir string, keepLast int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open store: %w", err)
	}
	return &Store{dir: dir, keep: max(keepLast, 1), sessions: map[string]*SessionStore{}}, nil
}

// Sessions lists the session IDs with a directory in the store, sorted
// (os.ReadDir sorts by name).
func (st *Store) Sessions() ([]string, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scan store: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}

// Session opens (creating the directory if needed) the per-session store
// for id. The log itself is opened by the first Write.
func (st *Store) Session(id string) (*SessionStore, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if ss, ok := st.sessions[id]; ok {
		return ss, nil
	}
	dir := filepath.Join(st.dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open session %s: %w", id, err)
	}
	ss := &SessionStore{dir: dir, path: filepath.Join(dir, logName), keep: st.keep}
	st.sessions[id] = ss
	return ss, nil
}

// Remove closes id's log and deletes its directory — called when a client
// closes its session, so a clean restart neither replays nor leaks disk.
func (st *Store) Remove(id string) error {
	st.mu.Lock()
	ss := st.sessions[id]
	delete(st.sessions, id)
	st.mu.Unlock()
	if ss != nil {
		ss.Close() //nolint:errcheck // the directory goes next
	}
	if err := os.RemoveAll(filepath.Join(st.dir, id)); err != nil {
		return fmt.Errorf("durable: remove session %s: %w", id, err)
	}
	return nil
}

// SessionStore is one session's log.
type SessionStore struct {
	dir, path string
	keep      int

	// mu guards the open log: f is nil until the first Write and after a
	// failed one, fi identifies the file f holds, n counts its records.
	mu sync.Mutex
	f  *os.File
	fi os.FileInfo
	n  int
}

// Write appends one encoded snapshot to the log and fsyncs it, rolling the
// log first (reopening it with keep as the limit) once it holds
// keep+rollEvery records. The append counts only if the file it went to is
// still the one at the log's path. A failed write closes the log; the next
// Write reopens it, which drops whatever the failure left after the last
// valid record. Returns the number of bytes written.
func (ss *SessionStore) Write(encoded []byte) (n int, err error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.f == nil {
		err = ss.open(math.MaxInt)
	}
	if err == nil && ss.n >= ss.keep+rollEvery {
		ss.f.Close() //nolint:errcheck // reopened at once, read only
		err = ss.open(ss.keep)
	}
	if err == nil {
		ss.n++
		_, err = ss.f.Write(encoded)
	}
	if err == nil {
		err = ss.f.Sync()
	}
	var fi os.FileInfo
	if err == nil {
		fi, err = os.Stat(ss.path)
	}
	if err == nil && !os.SameFile(fi, ss.fi) {
		err = errors.New("log was replaced")
	}
	if err != nil {
		ss.f.Close() //nolint:errcheck // the write error is the one to report
		ss.f = nil
		return 0, fmt.Errorf("durable: write snapshot: %w", err)
	}
	return len(encoded), nil
}

// open opens the log for appending, sweeping a stray log.tmp first. A log
// with bytes after its last valid record — left by a torn or failed
// append — or with more than keep records is first rewritten as its newest
// keep valid records: write log.tmp, fsync it, rename it over the log,
// reopen. The directory is fsynced, so the log's own name is durable before
// the first record counts on it.
func (ss *SessionStore) open(keep int) (err error) {
	tmp := ss.path + tmpSuffix
	os.Remove(tmp)
	if ss.f, err = os.OpenFile(ss.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644); err != nil {
		return err
	}
	data, err := io.ReadAll(ss.f)
	if err != nil {
		return err
	}
	recs, end := records(data)
	if end == len(data) && len(recs) <= keep {
		ss.n = len(recs)
		if d, derr := os.Open(ss.dir); derr == nil {
			d.Sync() // skipped silently where directories cannot be fsynced
			d.Close()
		}
		ss.fi, err = ss.f.Stat()
		return err
	}
	var kept []byte
	for _, sp := range recs[max(0, len(recs)-keep):] {
		kept = append(kept, data[sp.off:sp.end]...)
	}
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(kept); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, ss.path)
	}
	if err != nil {
		return err
	}
	ss.f.Close() //nolint:errcheck // the old log is unlinked
	return ss.open(keep)
}

// Close closes the log file; a later Write reopens it.
func (ss *SessionStore) Close() (err error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.f != nil {
		err = ss.f.Close()
		ss.f = nil
	}
	return err
}

// LoadNewest decodes the newest valid record in id's log, walking backward
// past torn or corrupt stretches (discarded counts those newer than the
// record returned — each is a crash casualty worth a metric). It never
// modifies the log. ErrNoSnapshot means the session has no log or an
// empty one; a log with bytes but no valid record is a hard error.
func (st *Store) LoadNewest(id string) (s *Snapshot, discarded int, err error) {
	data, err := os.ReadFile(filepath.Join(st.dir, id, logName))
	if errors.Is(err, fs.ErrNotExist) || err == nil && len(data) == 0 {
		return nil, 0, ErrNoSnapshot
	}
	if err != nil {
		return nil, 0, fmt.Errorf("durable: read log: %w", err)
	}
	spans := scan(data)
	for i := len(spans) - 1; i >= 0; i-- {
		if sp := spans[i]; sp.err == nil {
			if snap, err := Decode(data[sp.off:sp.end]); err == nil {
				return snap, len(spans) - 1 - i, nil
			}
		}
	}
	return nil, len(spans), fmt.Errorf("durable: none of the %d stretches of the log is a valid record: %w", len(spans), ErrCorrupt)
}

// span is one stretch of a log: a record whose frames verify (err nil), or
// a damaged stretch the scan skipped.
type span struct {
	off, end int
	err      error
}

// scan splits a log into spans. A stretch that is not a whole verified
// record — a torn tail, a failed CRC, garbage — runs to the next
// occurrence of the magic, so one damaged record never hides the records
// after it.
func scan(data []byte) []span {
	var spans []span
	for off := 0; off < len(data); {
		_, _, n, err := split(data[off:])
		if err != nil {
			n = len(data) - off
			if i := bytes.Index(data[off+1:], magic); i >= 0 {
				n = 1 + i
			}
		}
		spans = append(spans, span{off, off + n, err})
		off += n
	}
	return spans
}

// records returns the spans of data's valid records, in order, and where
// the last one ends.
func records(data []byte) (recs []span, end int) {
	for _, sp := range scan(data) {
		if sp.err == nil {
			recs, end = append(recs, sp), sp.end
		}
	}
	return recs, end
}
