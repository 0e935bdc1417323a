package metrics

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus writes every instrument in the Prometheus text format
// (version 0.0.4), sorted by name. Histograms emit cumulative ≤-buckets
// (only non-empty ones, plus the mandatory +Inf), _sum, and _count; an
// empty histogram still emits its +Inf/_sum/_count triple so dashboards
// can discover the series before traffic arrives. A top-k dimension emits
// its total offered weight as one counter line: its entries are keyed by
// unbounded user data, which belongs in /topz, not in label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range r.sortedEntries() {
		if e.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(e.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(e.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(e.name)
		bw.WriteByte(' ')
		kind := e.m.kind()
		if kind == "topk" {
			kind = "counter" // its one line is a monotone total
		}
		bw.WriteString(kind)
		bw.WriteByte('\n')
		switch m := e.m.(type) {
		case *Counter:
			bw.WriteString(e.name)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(m.Value(), 10))
			bw.WriteByte('\n')
		case *Gauge:
			writeFloatLine(bw, e.name, m.Value())
		case *FuncGauge:
			writeFloatLine(bw, e.name, m.Value())
		case *Histogram:
			writePromHistogram(bw, e.name, m)
		case dimension:
			writeFloatLine(bw, e.name, m.Total())
		}
	}
	return bw.Flush()
}

func writeFloatLine(bw *bufio.Writer, name string, v float64) {
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	bw.WriteByte('\n')
}

func writePromHistogram(bw *bufio.Writer, name string, h *Histogram) {
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		bw.WriteString(name)
		bw.WriteString(`_bucket{le="`)
		bw.WriteString(strconv.FormatFloat(upperBound(i), 'g', -1, 64))
		bw.WriteString(`"} `)
		bw.WriteString(strconv.FormatInt(cum, 10))
		bw.WriteByte('\n')
	}
	cum += h.counts[histBuckets].Load() // overflow counts only toward +Inf
	bw.WriteString(name)
	bw.WriteString(`_bucket{le="+Inf"} `)
	bw.WriteString(strconv.FormatInt(cum, 10))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_sum ")
	bw.WriteString(strconv.FormatFloat(float64(h.sumNanos.Load())/1e9, 'g', -1, 64))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_count ")
	bw.WriteString(strconv.FormatInt(cum, 10))
	bw.WriteByte('\n')
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
