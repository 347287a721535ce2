// Package durable persists engine checkpoints as crash-consistent
// snapshot files: a versioned binary codec over length-prefixed,
// CRC-checksummed frames (this file), a per-session snapshot store with
// atomic write discipline and keep-last-K retention (store.go), and a
// double-buffered background writer that keeps the engine's warm firing
// path allocation-free while snapshots stream to disk (writer.go).
//
// A snapshot is self-describing: besides the engine cut (ring contents,
// firing counters, valuation + digest, user state) it carries the
// session's identity — tenant and the canonical textual graph — so a cold
// restart can recompile the skeleton and resume the run from the file
// alone. Encoding is deterministic (maps are emitted in sorted key order),
// so encode(decode(encode(x))) is byte-identical to encode(x) and
// snapshots diff cleanly.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/engine"
)

// magic opens every snapshot file; the trailing byte is the format
// version. A reader seeing any other prefix rejects the file before
// trusting a single length field.
var magic = []byte("TPDFCK\x00\x01")

// ErrCorrupt reports a snapshot file that failed structural validation:
// bad magic, a torn (truncated) frame, or a CRC mismatch. The store treats
// such files as casualties of a crash mid-write and falls back to the next
// older snapshot.
var ErrCorrupt = errors.New("durable: corrupt snapshot")

// Snapshot is one durable cut of a session: the engine checkpoint plus
// the identity a cold restart needs to rebuild the session around it.
type Snapshot struct {
	// SessionID names the session (the store keys directories by it).
	SessionID string
	// Tenant is the quota accounting owner, restored on recovery.
	Tenant string
	// GraphText is the canonical textual graph (tpdf.Format); recovery
	// re-parses and recompiles it through the shared program cache.
	GraphText string
	// Checkpoint is the engine cut captured at a quiescent barrier.
	Checkpoint *engine.Checkpoint
}

// Value tags for checkpoint payload tokens. The token set the engine
// transports is open (any), but a durable snapshot must draw a line:
// everything here round-trips byte- and type-identical; anything else
// fails Encode with a clear error instead of persisting lossy state.
const (
	tagNil byte = iota
	tagFalse
	tagTrue
	tagInt // Go int, re-decoded as int
	tagInt64
	tagFloat64
	tagString
	tagBytes
	tagInt64Slice
	tagAnySlice
)

// Encode appends the snapshot's binary form to buf (pass buf[:0] to reuse
// an arena across persists) and returns the extended slice. The layout is
// magic, then two frames — identity and engine state — each length-
// prefixed and CRC32-guarded, so torn or bit-flipped files are detected
// at every byte offset.
func Encode(buf []byte, s *Snapshot) ([]byte, error) {
	if s.Checkpoint == nil {
		return nil, fmt.Errorf("durable: snapshot has no checkpoint")
	}
	buf = append(buf, magic...)

	frame := func(buf []byte, body func([]byte) ([]byte, error)) ([]byte, error) {
		// Reserve the length+CRC header, build the payload in place, then
		// backfill — one pass, no staging buffer.
		head := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
		buf, err := body(buf)
		if err != nil {
			return nil, err
		}
		payload := buf[head+8:]
		binary.LittleEndian.PutUint32(buf[head:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[head+4:], crc32.ChecksumIEEE(payload))
		return buf, nil
	}

	var err error
	buf, err = frame(buf, func(b []byte) ([]byte, error) {
		b = putString(b, s.SessionID)
		b = putString(b, s.Tenant)
		b = putString(b, s.GraphText)
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	return frame(buf, func(b []byte) ([]byte, error) {
		return encodeCheckpoint(b, s.Checkpoint)
	})
}

// Decode parses a snapshot file produced by Encode. Structural damage —
// wrong magic, truncation anywhere, a CRC mismatch on either frame —
// returns an error wrapping ErrCorrupt; the caller falls back to an older
// snapshot.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rest := data[len(magic):]
	readFrame := func() ([]byte, error) {
		if len(rest) < 8 {
			return nil, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		rest = rest[8:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: frame length %d exceeds remaining %d bytes", ErrCorrupt, n, len(rest))
		}
		payload := rest[:n]
		rest = rest[n:]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
		}
		return payload, nil
	}

	meta, err := readFrame()
	if err != nil {
		return nil, err
	}
	state, err := readFrame()
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}

	s := &Snapshot{}
	r := reader{buf: meta}
	s.SessionID = r.str()
	s.Tenant = r.str()
	s.GraphText = r.str()
	if r.err != nil {
		return nil, fmt.Errorf("%w: identity frame: %v", ErrCorrupt, r.err)
	}
	ck, err := decodeCheckpoint(state)
	if err != nil {
		return nil, err
	}
	s.Checkpoint = ck
	return s, nil
}

func encodeCheckpoint(b []byte, ck *engine.Checkpoint) ([]byte, error) {
	b = putString(b, ck.Graph)
	b = binary.AppendVarint(b, ck.Completed)
	b = binary.LittleEndian.AppendUint64(b, ck.Digest)
	b = append(b, 1) // reserved flag byte: snapshots on disk carry it, readers skip it

	keys := make([]string, 0, len(ck.Params))
	for k := range ck.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = putString(b, k)
		b = binary.AppendVarint(b, ck.Params[k])
	}

	if len(ck.Fired) != len(ck.Nodes) || len(ck.Base) != len(ck.Nodes) {
		return nil, fmt.Errorf("durable: checkpoint has %d nodes but %d/%d fired/base counters",
			len(ck.Nodes), len(ck.Fired), len(ck.Base))
	}
	b = binary.AppendUvarint(b, uint64(len(ck.Nodes)))
	for i, n := range ck.Nodes {
		b = putString(b, n)
		b = binary.AppendVarint(b, ck.Fired[i])
		b = binary.AppendVarint(b, ck.Base[i])
	}

	if len(ck.Edges) != len(ck.EdgeNames) {
		return nil, fmt.Errorf("durable: checkpoint has %d edge names but %d edges", len(ck.EdgeNames), len(ck.Edges))
	}
	b = binary.AppendUvarint(b, uint64(len(ck.EdgeNames)))
	for i, name := range ck.EdgeNames {
		b = putString(b, name)
		b = binary.AppendUvarint(b, uint64(len(ck.Edges[i])))
		var err error
		for _, v := range ck.Edges[i] {
			if b, err = putValue(b, v); err != nil {
				return nil, fmt.Errorf("edge %s: %w", name, err)
			}
		}
	}
	return putValue(b, ck.User)
}

func decodeCheckpoint(data []byte) (*engine.Checkpoint, error) {
	r := reader{buf: data}
	ck := &engine.Checkpoint{}
	ck.Graph = r.str()
	ck.Completed = r.varint()
	ck.Digest = r.fixed64()
	r.byte() // reserved flag byte

	np := r.uvarint()
	if r.err == nil && np > uint64(len(r.buf)) {
		// Same guard as the node/edge counts below: a lying length field
		// must not force a huge preallocation before any key is read.
		r.err = fmt.Errorf("param count %d exceeds frame", np)
	}
	if r.err == nil {
		ck.Params = make(map[string]int64, np)
		for i := uint64(0); i < np && r.err == nil; i++ {
			k := r.str()
			ck.Params[k] = r.varint()
		}
	}

	nn := r.uvarint()
	if r.err == nil && nn > uint64(len(r.buf)) {
		// A length field can only lie within what the CRC admitted, but
		// guard the preallocation anyway.
		r.err = fmt.Errorf("node count %d exceeds frame", nn)
	}
	if r.err == nil {
		ck.Nodes = make([]string, nn)
		ck.Fired = make([]int64, nn)
		ck.Base = make([]int64, nn)
		for i := range ck.Nodes {
			ck.Nodes[i] = r.str()
			ck.Fired[i] = r.varint()
			ck.Base[i] = r.varint()
		}
	}

	ne := r.uvarint()
	if r.err == nil && ne > uint64(len(r.buf)) {
		r.err = fmt.Errorf("edge count %d exceeds frame", ne)
	}
	if r.err == nil {
		ck.EdgeNames = make([]string, ne)
		ck.Edges = make([][]any, ne)
		for i := range ck.EdgeNames {
			ck.EdgeNames[i] = r.str()
			nt := r.uvarint()
			if r.err != nil {
				break
			}
			if nt > uint64(len(r.buf)) {
				r.err = fmt.Errorf("edge %s token count %d exceeds frame", ck.EdgeNames[i], nt)
				break
			}
			vals := make([]any, nt)
			for j := range vals {
				vals[j] = r.value(0)
			}
			ck.Edges[i] = vals
		}
	}
	ck.User = r.value(0)
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: state frame: %v", ErrCorrupt, r.err)
	}
	return ck, nil
}

func putString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// putValue encodes one payload token. Types outside the supported set fail
// loudly: persisting a value the decoder cannot reproduce exactly would
// silently break the byte-identical resume guarantee.
func putValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case int:
		return binary.AppendVarint(append(b, tagInt), int64(x)), nil
	case int64:
		return binary.AppendVarint(append(b, tagInt64), x), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat64), math.Float64bits(x)), nil
	case string:
		return putString(append(b, tagString), x), nil
	case []byte:
		b = binary.AppendUvarint(append(b, tagBytes), uint64(len(x)))
		return append(b, x...), nil
	case []int64:
		b = binary.AppendUvarint(append(b, tagInt64Slice), uint64(len(x)))
		for _, n := range x {
			b = binary.AppendVarint(b, n)
		}
		return b, nil
	case []any:
		b = binary.AppendUvarint(append(b, tagAnySlice), uint64(len(x)))
		var err error
		for _, e := range x {
			if b, err = putValue(b, e); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		return nil, fmt.Errorf("durable: unsupported payload type %T", v)
	}
}

// reader is a cursor over one frame; the first malformed field latches err
// and every later read returns zero values, so decode paths need a single
// error check at the end.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
}

func (r *reader) byte() byte {
	if r.err != nil || len(r.buf) == 0 {
		r.fail("truncated byte")
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) fixed64() uint64 {
	if r.err != nil || len(r.buf) < 8 {
		r.fail("truncated fixed64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.fail("truncated string")
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// maxValueDepth bounds recursion through nested []any so a corrupted (but
// checksum-passing) or adversarial file cannot blow the stack.
const maxValueDepth = 32

func (r *reader) value(depth int) any {
	if r.err != nil {
		return nil
	}
	if depth > maxValueDepth {
		r.fail("value nesting too deep")
		return nil
	}
	switch tag := r.byte(); tag {
	case tagNil:
		return nil
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagInt:
		return int(r.varint())
	case tagInt64:
		return r.varint()
	case tagFloat64:
		return math.Float64frombits(r.fixed64())
	case tagString:
		return r.str()
	case tagBytes:
		n := r.uvarint()
		if r.err != nil {
			return nil
		}
		if n > uint64(len(r.buf)) {
			r.fail("truncated bytes")
			return nil
		}
		v := append([]byte(nil), r.buf[:n]...)
		r.buf = r.buf[n:]
		return v
	case tagInt64Slice:
		n := r.uvarint()
		if r.err != nil {
			return nil
		}
		if n > uint64(len(r.buf)) {
			r.fail("truncated int64 slice")
			return nil
		}
		v := make([]int64, n)
		for i := range v {
			v[i] = r.varint()
		}
		return v
	case tagAnySlice:
		n := r.uvarint()
		if r.err != nil {
			return nil
		}
		if n > uint64(len(r.buf)) {
			r.fail("truncated any slice")
			return nil
		}
		v := make([]any, n)
		for i := range v {
			v[i] = r.value(depth + 1)
		}
		return v
	default:
		r.fail(fmt.Sprintf("unknown value tag %d", tag))
		return nil
	}
}
