package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format version 0.0.4, the format WriteProm emits.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// nsPerSecond converts the nanosecond timer ladder to seconds for the
// `_seconds` exposition.
const nsPerSecond = 1e9

// WriteProm writes the collector's aggregate state in the Prometheus text
// exposition format (version 0.0.4): counters, gauges, and the bounded
// log-bucketed histograms, deterministically sorted by metric name so the
// output is diff-stable.
//
// Naming follows the Prometheus conventions mechanically from the dotted
// internal names:
//
//   - every metric is prefixed "cd_" and dots become underscores
//     (core.rounds → cd_core_rounds_total);
//   - counters get the `_total` suffix;
//   - nanosecond timers (names ending "_ns") are exposed as histograms in
//     seconds with the suffix rewritten to `_seconds`
//     (serve.request_ns → cd_serve_request_seconds);
//   - Observe histograms keep their name and unitless bucket bounds;
//   - a "route.<value>" segment pair becomes a route label, keeping "route"
//     in the family name so labeled and unlabeled families never collide
//     (serve.route.solve.requests → cd_serve_route_requests_total{route="solve"}).
//
// Histograms are exposed with cumulative `_bucket{le="..."}` series over the
// power-of-two ladder (trimmed past the last non-empty rung), `_sum`, and
// `_count`, so p50/p90/p99 fall out of histogram_quantile() server-side
// exactly as Snapshot estimates them client-side. One meta series rides
// along: cd_uptime_seconds.
func (m *Metrics) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)

	type series struct {
		labels string // pre-rendered {route="x"} or ""
		value  float64
		hist   *Histogram // non-nil for histogram families
		scale  float64    // value divisor for histogram sums/bounds (1 or nsPerSecond)
	}
	type family struct {
		name   string // exposition family name, suffixes included for scalars
		typ    string // counter | gauge | histogram
		help   string
		series []series
	}
	fams := make(map[string]*family)
	add := func(name, typ, help string, s series) {
		f := fams[name]
		if f == nil {
			f = &family{name: name, typ: typ, help: help}
			fams[name] = f
		}
		f.series = append(f.series, s)
	}

	m.cmu.RLock()
	counterVals := make(map[string]int64, len(m.counters))
	for name, p := range m.counters {
		counterVals[name] = atomic.LoadInt64(p)
	}
	m.cmu.RUnlock()
	for name, v := range counterVals {
		pn, labels := promName(name)
		add(pn+"_total", "counter", name, series{labels: labels, value: float64(v)})
	}

	// Gauges and histograms share m.mu; histograms are rendered under the
	// lock (Histogram has no standalone snapshot of its buckets), so the
	// whole exposition is one consistent cut.
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, v := range m.gauges {
		pn, labels := promName(name)
		add(pn, "gauge", name, series{labels: labels, value: v})
	}
	for name, h := range m.timers {
		pn, labels := promName(name)
		if strings.HasSuffix(pn, "_ns") {
			pn = strings.TrimSuffix(pn, "_ns") + "_seconds"
		}
		add(pn, "histogram", name, series{labels: labels, hist: h, scale: nsPerSecond})
	}
	for name, h := range m.hists {
		pn, labels := promName(name)
		add(pn, "histogram", name, series{labels: labels, hist: h, scale: 1})
	}

	add("cd_uptime_seconds", "gauge", "seconds since the collector was created",
		series{value: time.Since(m.start).Seconds()})

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		bw.WriteString("# HELP " + f.name + " " + f.help + "\n")
		bw.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		for _, s := range f.series {
			if s.hist == nil {
				bw.WriteString(f.name + s.labels + " " + num(s.value) + "\n")
				continue
			}
			bounds, cum := s.hist.Buckets()
			for i, ub := range bounds {
				bw.WriteString(f.name + "_bucket" + mergeLabels(s.labels, `le="`+num(ub/s.scale)+`"`) +
					" " + strconv.FormatUint(cum[i], 10) + "\n")
			}
			bw.WriteString(f.name + "_bucket" + mergeLabels(s.labels, `le="+Inf"`) +
				" " + strconv.FormatUint(s.hist.N(), 10) + "\n")
			bw.WriteString(f.name + "_sum" + s.labels + " " + num(s.hist.sum/s.scale) + "\n")
			bw.WriteString(f.name + "_count" + s.labels + " " +
				strconv.FormatUint(s.hist.N(), 10) + "\n")
		}
	}
	return bw.Flush()
}

// promName maps a dotted internal name to a Prometheus family name and a
// rendered label set. A segment pair "route.<value>" is lifted into a
// route label; "route" itself stays in the name so labeled families can
// never collide with their unlabeled aggregates.
func promName(dotted string) (name, labels string) {
	segs := strings.Split(dotted, ".")
	out := make([]string, 0, len(segs))
	for i := 0; i < len(segs); i++ {
		out = append(out, sanitizeSeg(segs[i]))
		if segs[i] == "route" && i+1 < len(segs) {
			labels = `{route="` + escapeLabel(segs[i+1]) + `"}`
			i++
		}
	}
	return "cd_" + strings.Join(out, "_"), labels
}

// sanitizeSeg maps one name segment into the [a-zA-Z0-9_] metric alphabet.
func sanitizeSeg(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// mergeLabels combines a rendered label set with one extra label ("le=...").
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}
