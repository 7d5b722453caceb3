package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a series name, its label set
// and value. This is the read half of the Prometheus text format —
// WritePrometheus is the write half — used by the `parallellives stat`
// dashboard and tests that assert on exposition output.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Samples is a parsed exposition document with lookup helpers.
type Samples []Sample

// ParseExposition parses a Prometheus text-format (0.0.4) document.
// Comment and blank lines are skipped; a malformed series line is an
// error. Histogram series parse as their underlying _bucket/_count/_sum
// samples (use Quantile to interpolate).
func ParseExposition(data []byte) (Samples, error) {
	var out Samples
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", ln+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.Name = line[:i]
		end := strings.LastIndexByte(line, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label block")
		}
		labels, err := parseLabels(line[i+1 : end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(line[end+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return s, fmt.Errorf("want 'name value', got %q", line)
		}
		s.Name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if s.Name == "" || !nameRe.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	// rest is "value" or "value timestamp"; we never emit timestamps but
	// tolerate them.
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return s, fmt.Errorf("missing value")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parseLabels scans `k1="v1",k2="v2"` honoring the \\, \" and \n
// escapes WritePrometheus emits.
func parseLabels(in string) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(in) {
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", in[i:])
		}
		key := strings.TrimSpace(in[i : i+eq])
		if !labelRe.MatchString(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return nil, fmt.Errorf("label %s: unquoted value", key)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(in) {
				return nil, fmt.Errorf("label %s: unterminated value", key)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(in) {
				switch in[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(c)
					b.WriteByte(in[i+1])
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		labels[key] = b.String()
		if i < len(in) && in[i] == ',' {
			i++
		}
	}
	return labels, nil
}

// matches reports whether the sample's labels agree with every
// constraint in match (a subset match: extra sample labels are fine).
func (s Sample) matches(match map[string]string) bool {
	for k, v := range match {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Value returns the first sample with the given name whose labels
// satisfy match. The bool reports whether one exists.
func (s Samples) Value(name string, match map[string]string) (float64, bool) {
	for _, smp := range s {
		if smp.Name == name && smp.matches(match) {
			return smp.Value, true
		}
	}
	return 0, false
}

// Sum adds every sample with the given name whose labels satisfy match.
func (s Samples) Sum(name string, match map[string]string) float64 {
	var total float64
	for _, smp := range s {
		if smp.Name == name && smp.matches(match) {
			total += smp.Value
		}
	}
	return total
}

// Quantile estimates the q-quantile of the histogram family name from
// its _bucket samples satisfying match, merging buckets across all
// matching series (the "le" label is excluded from matching). It uses
// the same interpolation as Histogram.Quantile — QuantileFromBuckets —
// so a value computed from scraped text agrees exactly with one
// computed in-process from the same state. Returns 0 when no buckets
// match.
func (s Samples) Quantile(name string, q float64, match map[string]string) float64 {
	cum := make(map[float64]float64)
	for _, smp := range s {
		if smp.Name != name+"_bucket" || !smp.matches(match) {
			continue
		}
		le := smp.Labels["le"]
		var bound float64
		switch le {
		case "+Inf":
			bound = math.Inf(1)
		default:
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = v
		}
		cum[bound] += smp.Value
	}
	if len(cum) == 0 {
		return 0
	}
	all := make([]float64, 0, len(cum))
	for b := range cum {
		all = append(all, b)
	}
	sort.Float64s(all)
	bounds := all
	if math.IsInf(all[len(all)-1], 1) {
		bounds = all[:len(all)-1]
	}
	buckets := make([]int64, len(all))
	var prev float64
	for i, b := range all {
		buckets[i] = int64(cum[b] - prev)
		prev = cum[b]
	}
	if len(buckets) == len(bounds) {
		buckets = append(buckets, 0) // no +Inf series scraped; treat as empty
	}
	return QuantileFromBuckets(bounds, buckets, q)
}
