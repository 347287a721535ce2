package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. parent indexes the enclosing span (-1 at top level); op is the
// benchmark op the call belongs to, so the spans of one op share an id.
type span struct {
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
	parent int32
	op     int32
}

// tracer records spans in memory from the benchmark's own call sites and
// writes them out only at exit. It belongs to one goroutine (the closed
// loop has one client). A nil *tracer is the untraced run: every method is
// a no-op, so the op code is written once.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	op    int32
	// dropped counts spans discarded once the preallocated buffer filled;
	// recording never grows the buffer inside a measured section.
	dropped int
}

// maxSpans bounds the in-memory trace: ~40 bytes a span, so 16 MB.
const maxSpans = 400_000

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans), stack: make([]int32, 0, 16)}
}

// setOp names the op that subsequent spans belong to.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = int32(op)
	}
}

// begin opens a span; the returned token must be handed to end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.op, start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned and reports its duration in
// nanoseconds (0 when nothing was recorded).
func (t *tracer) end(id int32) int64 {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.epoch))
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	return s.end - s.start
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (children of one parent never
// overlap: the tracer is single-goroutine and strictly nested).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// selfByName groups span self times (ns) by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.name] = append(out[s.name], float64(self[i]))
	}
	return out
}

// writeChromeTrace writes the spans as a Chrome trace-event JSON array
// (chrome://tracing, Perfetto): complete ("X") events in microseconds, the
// op id as the thread so one op reads as one row group.
func (t *tracer) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d}}",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op, s.parent)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
