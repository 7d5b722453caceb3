package delegation

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// extendedSeed is an extended file with summaries and ipv4 rows: every
// File field a later parse into the same File must reset.
const extendedSeed = "2.3|arin|20100101|2|20100101|20100101|-0500\n" +
	"arin|*|asn|*|1|summary\n" +
	"arin|*|ipv4|*|1|summary\n" +
	"arin|US|asn|1500|1|20100101|allocated|o-1\n" +
	"arin|US|ipv4|192.0.2.0|256|20100101|allocated|o-1\n"

// FuzzLenientParse drives the lenient parser with arbitrary bytes: it
// must never panic, and any file it does produce must survive
// serialization — the no-crash contract the fault-tolerant ingest layer
// leans on when feeding it corrupt archive content. Parsing into a File
// that already holds extendedSeed must give what a fresh parse gives.
func FuzzLenientParse(f *testing.F) {
	f.Add([]byte("2|arin|20100101|3|20100101|20100102|+0000\n" +
		"arin|*|asn|*|1|summary\n" +
		"arin|US|asn|1500|1|20100101|allocated|o-1\n" +
		"arin|US|ipv4|192.0.2.0|256|20100101|allocated\n"))
	f.Add([]byte("2.3|ripencc|20210301|1|19930901|20210301|+0200\nripencc|NL|asn|3333|1|19930901|assigned\n"))
	f.Add([]byte(""))
	f.Add([]byte("# comment only\n\n"))
	f.Add([]byte("2&arin&20100101&1|garbage"))
	f.Add([]byte("2|arin|20100101|1|20100101|20100101|+0000\narin|US|asn|1500|0|20100101|allocated\n"))
	f.Add([]byte(extendedSeed))
	// A regular file after an extended one: the Extended flag must reset.
	f.Add([]byte("2|arin|20100102|1|20100102|20100102|+0000\narin|US|asn|1501|1|20100102|assigned\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, _ := ParseLenient(bytes.NewReader(data))
		var p Parser
		reused, _ := p.ParseLenient([]byte(extendedSeed))
		if reused == nil || !reused.Extended || len(reused.Summaries) == 0 || len(reused.Other) == 0 {
			t.Fatalf("extendedSeed parsed to %+v", reused)
		}
		if into, _ := p.ParseLenientInto(reused, data); (into == nil) != (parsed == nil) ||
			into != nil && !reflect.DeepEqual(into, parsed) {
			t.Fatalf("parse into a used File = %+v, fresh parse = %+v", into, parsed)
		}
		if parsed == nil {
			return
		}
		// Whatever survived parsing must serialize without panicking.
		if _, err := parsed.WriteTo(io.Discard); err != nil {
			t.Fatalf("WriteTo of a parsed file failed: %v", err)
		}
	})
}

// FuzzParseSeries parses two files through one Series: each result must
// be what a fresh parse of its bytes gives (nil when unusable), however
// many of the second file's lines the first one's memory supplies.
func FuzzParseSeries(f *testing.F) {
	const hdr = "2|arin|20100101|5|20100101|20100102|+0000\n"
	const (
		a1 = "arin|US|asn|1500|1|20100101|allocated\n"
		a2 = "arin|US|asn|1600|2|20100101|assigned\n"
		a3 = "arin|CA|asn|1700|1|20100102|allocated\n"
		x1 = "arin|US|asn|1500|1|20100101|allocated|o-1\n"
		v4 = "arin|US|ipv4|192.0.2.0|256|20100101|allocated\n"
		w4 = "arin|US|ipv4|198.51.100.0|256|20100101|allocated\n"
		v6 = "arin|US|ipv6|2001:db8::|32|20100101|allocated\n"
	)
	for _, pair := range [][2]string{
		{hdr + a1 + a2 + a3 + v4 + v6, hdr + a1 + a2 + a3 + v4 + v6},                                   // shared
		{hdr + a1 + a2 + a3 + v4 + w4, hdr + "arin|*|asn|*|3|summary\n" + a2 + a3 + "# c\n" + w4 + v6}, // shifted
		{hdr + a2 + v4, hdr + a1 + a2 + a2 + a3 + v4 + v4 + w4},                                        // duplicated, inserted
		{hdr + a1 + a3 + w4 + v6, hdr + a1 + "arin|US|asn|1700|1|20100103|allocated\n" + v4 + v6},      // changed
		{strings.ReplaceAll(hdr+a1+a2+v4, "\n", "\r\n"), hdr + a1 + a2 + v4},                           // CRLF
		{hdr + a1 + a2, strings.ReplaceAll(hdr+a1+a2+a3, "\n", "\r\n")},
		{hdr + x1 + a2 + v4, hdr + a1 + x1 + a2 + v4}, // regular⇄extended
		{hdr + a1 + x1, hdr + a1 + a2},
		{hdr + x1 + a2, hdr + x1 + a3},
		{hdr + x1 + a2, hdr + a2},
		{hdr + a1 + "arin|US|asn|1500|x|20100101|allocated\n" + a2, hdr + a2 + "arin|US|asn|1500|x|20100101|allocated\n" + a2},
		{"2&arin&broken\n" + a1, hdr + a1}, // unusable first
		{hdr + a1, a1 + hdr + a1},          // a reusable line before the header
	} {
		f.Add([]byte(pair[0]), []byte(pair[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		fresh := func(data []byte) *File {
			f, _ := ParseLenientBytes(data)
			if f != nil && len(f.ASNs) == 0 && len(f.Other) == 0 {
				return nil
			}
			return f
		}
		var s Series
		if got, want := s.Parse(a), fresh(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("first file: series parse = %+v, fresh parse = %+v", got, want)
		}
		if got, want := s.Parse(b), fresh(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("second file: series parse = %+v, fresh parse = %+v", got, want)
		}
	})
}
