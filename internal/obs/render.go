package obs

import (
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
// reader, whose kind fixes the TYPE line (Counter → counter, Gauge →
// gauge, Hist → histogram).
type Family[T any] struct {
	Name, Help string
	Counter    func(T) uint64
	Gauge      func(T) int64
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
			if f.Counter != nil {
				fmt.Fprintf(w, "%s %s\n", series, strconv.FormatUint(f.Counter(in), 10))
			} else {
				fmt.Fprintf(w, "%s %s\n", series, strconv.FormatInt(f.Gauge(in), 10))
			}
		}
	}
}

// CheckFamilies reports every entry of fams that does not set exactly
// one reader, has no HELP text, breaks the naming conventions (see
// lintName) or repeats an earlier entry's name. It sees one table, so a
// page rendering several must check for names repeated across them.
func CheckFamilies[T any](fams []Family[T]) []string {
	var problems []string
	seen := map[string]bool{}
	for _, f := range fams {
		n := 0
		for _, set := range []bool{f.Counter != nil, f.Gauge != nil, f.Hist != nil} {
			if set {
				n++
			}
		}
		if n != 1 {
			problems = append(problems, fmt.Sprintf("%s: %d readers, want exactly 1", f.Name, n))
		}
		if f.Help == "" {
			problems = append(problems, fmt.Sprintf("%s: no HELP text", f.Name))
		}
		problems = append(problems, lintName(f.Name, f.typ())...)
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

// lintName applies the naming conventions to one family of type typ:
//
//   - names must match [a-zA-Z_:][a-zA-Z0-9_:]*;
//   - counter families must end in _total, non-counters must not;
//   - family names must not end in the reserved _bucket/_sum/_count
//     suffixes (histogram internals are derived, never declared);
//   - a family whose name mentions a duration must carry the _seconds
//     unit suffix (before _total for counters).
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
