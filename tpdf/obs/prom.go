package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Label is one Prometheus label pair.
type Label struct {
	Key   string
	Value string
}

// PromWriter emits the Prometheus text exposition format (version 0.0.4):
// families introduced with Family (HELP/TYPE lines), samples appended with
// Int/Histo. Errors are sticky; check Err (or the Flush result) once at
// the end.
type PromWriter struct {
	w   *bufio.Writer
	err error
}

// NewPromWriter wraps w for exposition output.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: bufio.NewWriter(w)}
}

// Family introduces a metric family. typ is "counter", "gauge" or
// "histogram"; help must not contain newlines.
func (p *PromWriter) Family(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Int emits one integer-valued sample line. Emit samples of a family
// contiguously, directly after its Family call.
func (p *PromWriter) Int(name string, labels []Label, value int64) {
	p.printf("%s%s %d\n", name, renderLabels(labels), value)
}

// Histo emits the bucket/sum/count series of one histogram under name
// (which must already have been introduced with Family(..., "histogram")).
func (p *PromWriter) Histo(name string, labels []Label, h *Histogram) {
	bounds, counts, sum, count := h.snapshot()
	cum := int64(0)
	for i, b := range bounds {
		cum += counts[i]
		p.printf("%s_bucket%s %d\n", name, renderLabels(append(labels, Label{"le", formatValue(b)})), cum)
	}
	cum += counts[len(bounds)]
	p.printf("%s_bucket%s %d\n", name, renderLabels(append(labels, Label{"le", "+Inf"})), cum)
	p.printf("%s_sum%s %s\n", name, renderLabels(labels), formatValue(sum))
	p.printf("%s_count%s %d\n", name, renderLabels(labels), count)
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

// Flush drains the buffer and returns the sticky error.
func (p *PromWriter) Flush() error {
	if p.err == nil {
		p.err = p.w.Flush()
	}
	return p.err
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

func formatValue(v float64) string {
	if v == math.Inf(1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidateExposition parses a Prometheus text exposition and returns the
// number of sample lines, failing on malformed comment, sample or value
// syntax. It is a structural check (the subset loadgen and the serve tests
// assert), not a full openmetrics parser.
func ValidateExposition(text string) (samples int, err error) {
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				return samples, fmt.Errorf("line %d: malformed comment %q", ln+1, line)
			}
			continue
		}
		// name{labels} value [timestamp]
		rest := line
		name := rest
		if i := strings.IndexAny(rest, "{ "); i >= 0 {
			name = rest[:i]
			if rest[i] == '{' {
				j := strings.Index(rest, "} ")
				if j < 0 {
					return samples, fmt.Errorf("line %d: unterminated labels in %q", ln+1, line)
				}
				rest = rest[j+2:]
			} else {
				rest = rest[i+1:]
			}
		} else {
			return samples, fmt.Errorf("line %d: no value in %q", ln+1, line)
		}
		if name == "" || !validMetricName(name) {
			return samples, fmt.Errorf("line %d: bad metric name %q", ln+1, name)
		}
		val := strings.Fields(rest)
		if len(val) < 1 || len(val) > 2 {
			return samples, fmt.Errorf("line %d: bad sample %q", ln+1, line)
		}
		if val[0] != "+Inf" && val[0] != "-Inf" && val[0] != "NaN" {
			if _, perr := strconv.ParseFloat(val[0], 64); perr != nil {
				return samples, fmt.Errorf("line %d: bad value %q", ln+1, val[0])
			}
		}
		samples++
	}
	return samples, nil
}

func validMetricName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(name) > 0
}
