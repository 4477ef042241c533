package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition rendering. Every family of every
// exposition is one Family row in a table, and WriteFamilies renders
// the tables: # HELP / # TYPE once per family, then one sample set per
// instance. The rendering path is cold and free to allocate.

// Family is one metric family: its name, its HELP text and exactly one
// reader, whose kind fixes the TYPE line (Counter → counter, Gauge and
// Float → gauge, Hist → histogram).
type Family[T any] struct {
	Name, Help string
	Counter    func(T) uint64
	Gauge      func(T) int64
	Float      func(T) float64
	Hist       func(T) *Histogram
}

func (f *Family[T]) typ() string {
	switch {
	case f.Counter != nil:
		return "counter"
	case f.Hist != nil:
		return "histogram"
	}
	return "gauge"
}

// WriteFamilies renders every family of fams over insts. labels[i] is
// the pre-rendered `k="v",…` set of insts[i]; a nil labels renders
// unlabelled samples.
func WriteFamilies[T any](w io.Writer, fams []Family[T], insts []T, labels []string) {
	for i := range fams {
		f := &fams[i]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.typ())
		for j, in := range insts {
			var lbl string
			if labels != nil {
				lbl = labels[j]
			}
			if f.Hist != nil {
				f.Hist(in).writeProm(w, f.Name, lbl)
				continue
			}
			series := f.Name
			if lbl != "" {
				series += "{" + lbl + "}"
			}
			switch {
			case f.Counter != nil:
				fmt.Fprintf(w, "%s %s\n", series, strconv.FormatUint(f.Counter(in), 10))
			case f.Gauge != nil:
				fmt.Fprintf(w, "%s %s\n", series, strconv.FormatInt(f.Gauge(in), 10))
			default:
				fmt.Fprintf(w, "%s %g\n", series, f.Float(in))
			}
		}
	}
}

// CheckFamilies reports every entry of fams that does not set exactly
// one reader or repeats an earlier entry's name.
func CheckFamilies[T any](fams []Family[T]) []string {
	var problems []string
	seen := map[string]bool{}
	for _, f := range fams {
		n := 0
		for _, set := range []bool{f.Counter != nil, f.Gauge != nil, f.Float != nil, f.Hist != nil} {
			if set {
				n++
			}
		}
		if n != 1 {
			problems = append(problems, fmt.Sprintf("%s: %d readers, want exactly 1", f.Name, n))
		}
		if seen[f.Name] {
			problems = append(problems, fmt.Sprintf("%s: family declared twice", f.Name))
		}
		seen[f.Name] = true
	}
	return problems
}

// writeProm renders the histogram's cumulative buckets, _sum and
// _count under the given family name and label set (no header).
func (h *Histogram) writeProm(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum.Load())
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.sum.Load())
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count.Load())
}

// DecodeFamilies is the export schema of DecodeMetrics: the replica
// renders it with one labelled sample set per served model.
var DecodeFamilies = []Family[*DecodeMetrics]{
	{Name: "vegapunk_decode_total", Help: "Decode calls observed by the decoder telemetry.",
		Counter: func(m *DecodeMetrics) uint64 { return m.Decodes.Load() }},
	{Name: "vegapunk_decode_bp_converged_total", Help: "Decodes where plain BP reproduced the syndrome.",
		Counter: func(m *DecodeMetrics) uint64 { return m.BPConverged.Load() }},
	{Name: "vegapunk_decode_fallback_total", Help: "Decodes that engaged OSD/LSD fallback post-processing.",
		Counter: func(m *DecodeMetrics) uint64 { return m.Fallback.Load() }},
	{Name: "vegapunk_decode_bp_iterations", Help: "BP message-passing iterations per decode.",
		Hist: func(m *DecodeMetrics) *Histogram { return m.BPIters }},
	{Name: "vegapunk_decode_hier_levels", Help: "Hierarchical outer levels per Vegapunk decode.",
		Hist: func(m *DecodeMetrics) *Histogram { return m.HierLevels }},
	{Name: "vegapunk_decode_lsd_cluster_checks", Help: "Largest LSD cluster check count per fallback decode.",
		Hist: func(m *DecodeMetrics) *Histogram { return m.LSDClusterChecks }},
	{Name: "vegapunk_decode_syndrome_weight", Help: "Hamming weight of decoded syndromes.",
		Hist: func(m *DecodeMetrics) *Histogram { return m.SyndromeWeight }},
}

// LintExposition audits a Prometheus text exposition for the repo's
// naming conventions and returns one message per violation:
//
//   - every sample's family must have # HELP and # TYPE lines, and no
//     family may be TYPEd twice;
//   - counter families must end in _total, non-counters must not;
//   - family names must not end in the reserved _bucket/_sum/_count
//     suffixes (histogram internals are derived, never declared);
//   - names must match [a-zA-Z_:][a-zA-Z0-9_:]*;
//   - a family whose name mentions a duration must carry the _seconds
//     unit suffix (before _total for counters).
func LintExposition(r io.Reader) []string {
	var problems []string
	typeOf := map[string]string{}
	helped := map[string]bool{}
	sampled := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) < 2 || fields[1] == "" {
				problems = append(problems, fmt.Sprintf("HELP without text: %q", line))
			}
			if len(fields) > 0 {
				helped[fields[0]] = true
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				problems = append(problems, fmt.Sprintf("malformed TYPE line: %q", line))
				continue
			}
			if _, dup := typeOf[fields[0]]; dup {
				problems = append(problems, fmt.Sprintf("%s: family declared twice", fields[0]))
			}
			typeOf[fields[0]] = fields[1]
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			sampled[name] = true
		}
	}
	// Resolve derived histogram/summary samples (_bucket/_sum/_count) to
	// their declaring family — but only when that family was TYPEd as
	// one; a standalone gauge named x_sum is a violation, not a
	// histogram internal.
	families := map[string]bool{}
	for name := range sampled {
		fam := name
		if _, declared := typeOf[name]; !declared {
			if base := familyOf(name); base != name {
				if t := typeOf[base]; t == "histogram" || t == "summary" {
					fam = base
				}
			}
		}
		families[fam] = true
	}
	for fam := range families {
		typ, ok := typeOf[fam]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: sample without # TYPE", fam))
			continue
		}
		if !helped[fam] {
			problems = append(problems, fmt.Sprintf("%s: sample without # HELP", fam))
		}
		problems = append(problems, lintName(fam, typ)...)
	}
	return problems
}

// familyOf strips the derived histogram/summary sample suffixes so
// name_bucket/_sum/_count resolve to their declaring family when that
// family was TYPEd.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// lintName applies the per-family naming rules.
func lintName(name, typ string) []string {
	var problems []string
	for i, r := range name {
		ok := r == '_' || r == ':' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			i > 0 && r >= '0' && r <= '9'
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: invalid metric name character %q", name, r))
			break
		}
	}
	base := name
	if typ == "counter" {
		if !strings.HasSuffix(name, "_total") {
			problems = append(problems, fmt.Sprintf("%s: counter must end in _total", name))
		}
		base = strings.TrimSuffix(name, "_total")
	} else if strings.HasSuffix(name, "_total") {
		problems = append(problems, fmt.Sprintf("%s: %s must not end in _total", name, typ))
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(base, suf) {
			problems = append(problems, fmt.Sprintf("%s: family name ends in reserved suffix %s", name, suf))
		}
	}
	for _, unit := range []string{"latency", "duration", "wait", "time"} {
		if strings.Contains(base, unit) && !strings.HasSuffix(base, "_seconds") {
			problems = append(problems, fmt.Sprintf("%s: duration-like metric must end in _seconds", name))
			break
		}
	}
	return problems
}
