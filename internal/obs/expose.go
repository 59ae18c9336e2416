package obs

import (
	"bufio"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition format version this
// package writes.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in Prometheus text
// exposition format: families sorted by name, each with # HELP and
// # TYPE lines, children sorted by label values, histograms expanded
// into cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var buf []uint64
	for _, f := range fams {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, c := range f.snapshot() {
			if f.kind == KindHistogram {
				buf = writeHistogram(bw, f, c, buf)
				continue
			}
			bw.WriteString(f.name)
			writeLabels(bw, f.labelNames, c.labelValues, "", 0)
			bw.WriteByte(' ')
			bw.WriteString(formatValue(childValue(c)))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// childValue reads a scalar child: function-backed children are read
// at scrape time, atomic children from their own storage.
func childValue(c *child) float64 {
	if fn := c.fn.Load(); fn != nil {
		return (*fn)()
	}
	switch {
	case c.counter != nil:
		return float64(c.counter.Value())
	case c.gauge != nil:
		return c.gauge.Value()
	}
	return 0
}

// writeHistogram renders one histogram child as its cumulative bucket
// series plus _sum and _count. The bucket snapshot is taken once, so
// the +Inf bucket and _count are exactly equal and the cumulative
// counts are monotone by construction.
func writeHistogram(bw *bufio.Writer, f *family, c *child, buf []uint64) []uint64 {
	counts, total := c.hist.snapshot(buf)
	var cum uint64
	for i, upper := range c.hist.upper {
		cum += counts[i]
		bw.WriteString(f.name)
		bw.WriteString("_bucket")
		writeLabels(bw, f.labelNames, c.labelValues, formatValue(upper), 1)
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	}
	bw.WriteString(f.name)
	bw.WriteString("_bucket")
	writeLabels(bw, f.labelNames, c.labelValues, "+Inf", 1)
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(total, 10))
	bw.WriteByte('\n')

	bw.WriteString(f.name)
	bw.WriteString("_sum")
	writeLabels(bw, f.labelNames, c.labelValues, "", 0)
	bw.WriteByte(' ')
	bw.WriteString(formatValue(c.hist.Sum()))
	bw.WriteByte('\n')

	bw.WriteString(f.name)
	bw.WriteString("_count")
	writeLabels(bw, f.labelNames, c.labelValues, "", 0)
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(total, 10))
	bw.WriteByte('\n')
	return counts
}

// writeLabels renders {name="value",...}, appending an le="..." pair
// when leMode is 1. Nothing is written for an empty label set.
func writeLabels(bw *bufio.Writer, names, values []string, le string, leMode int) {
	if len(names) == 0 && leMode == 0 {
		return
	}
	bw.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(n)
		bw.WriteString(`="`)
		bw.WriteString(escapeLabelValue(values[i]))
		bw.WriteByte('"')
	}
	if leMode == 1 {
		if len(names) > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(`le="`)
		bw.WriteString(le)
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

// formatValue renders a sample value the way Prometheus expects:
// shortest float round-trip, integral values without an exponent.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslashes, quotes, and newlines.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler returns the GET /metrics endpoint for this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w) // a failed write means the scraper left
	})
}
