package delegation

import (
	"bytes"
	"io"
	"reflect"
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
