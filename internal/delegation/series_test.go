package delegation

import (
	"fmt"
	"strings"
	"testing"
)

// TestSeriesReusesOnlyUnchangedLines: a Series takes a record from the
// previous file exactly when the asn line is byte-identical to the one
// under its cursor, and the cursor resyncs after every edit. The test
// marks the previous file's records, which the next Parse reuses, so the
// marked records of the next file are the reused ones. Between two files
// that differ by an inserted line, a deleted run and a changed line, the
// new lines are parsed, and so is the first line after the deletion,
// where the cursor resyncs; ipv4 lines never come from the memory.
func TestSeriesReusesOnlyUnchangedLines(t *testing.T) {
	const hdr = "2|ripencc|20100101|24|19930101|20100101|+0000\n"
	line := func(x int, date string) string {
		return fmt.Sprintf("ripencc|NL|asn|%d|1|%s|allocated\n", x, date)
	}
	var a, b strings.Builder
	a.WriteString(hdr)
	b.WriteString(hdr)
	for i := 0; i < 20; i++ {
		a.WriteString(line(100+2*i, "19930101"))
		switch {
		case i == 5:
			b.WriteString(line(109, "20100101")) // inserted before line 5...
			b.WriteString(line(110, "19930101"))
		case i >= 10 && i <= 12: // ...a run deleted...
		case i == 15:
			b.WriteString(line(130, "20100101")) // ...and a line changed
		default:
			b.WriteString(line(100+2*i, "19930101"))
		}
	}
	const v4 = "ripencc|NL|ipv4|10.0.0.0|256|19930101|allocated\n"
	a.WriteString(v4)
	b.WriteString(v4)
	for _, tc := range []struct {
		name       string
		prev, next string
		fresh      []int // the next file's records parsed afresh
	}{
		{"b after a", a.String(), b.String(), []int{5, 11, 13}},
		{"a after b", b.String(), a.String(), []int{5, 10, 11, 12, 15}},
	} {
		var s Series
		prev := s.Parse([]byte(tc.prev))
		for i := range prev.ASNs {
			prev.ASNs[i].OpaqueID = "memory"
		}
		prev.Other[0] = "memory"
		next := s.Parse([]byte(tc.next))
		if next == nil || len(next.Other) != 1 || next.Other[0] == "memory" {
			t.Fatalf("%s: parsed to %+v", tc.name, next)
		}
		var fresh []int
		for i, r := range next.ASNs {
			if r.OpaqueID != "memory" {
				fresh = append(fresh, i)
			}
		}
		if fmt.Sprint(fresh) != fmt.Sprint(tc.fresh) {
			t.Errorf("%s: records %v parsed afresh, want %v", tc.name, fresh, tc.fresh)
		}
	}
}
