package delegation

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
)

const sampleExtended = `2|ripencc|20210301|5|19930901|20210301|+0100
# a comment line
ripencc|*|asn|*|3|summary
ripencc|FR|asn|2200|1|19930901|allocated|opq-001
ripencc|IT|asn|205334|1|20170920|allocated|opq-002
ripencc||asn|205335|1|00000000|available|
ripencc|DE|ipv4|192.0.2.0|256|20000101|allocated|opq-003
ripencc|NL|asn|205336|1|20180101|reserved|opq-004
`

func TestParseExtended(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleExtended))
	if err != nil {
		t.Fatal(err)
	}
	if f.Registry != asn.RIPENCC || f.Serial != "20210301" || f.Records != 5 {
		t.Errorf("header = %+v", f)
	}
	if f.Start != dates.MustParse("1993-09-01") || f.End != dates.MustParse("2021-03-01") {
		t.Errorf("dates = %v %v", f.Start, f.End)
	}
	if !f.Extended {
		t.Error("file should be detected as extended")
	}
	if len(f.ASNs) != 4 {
		t.Fatalf("ASNs = %d", len(f.ASNs))
	}
	if len(f.Other) != 1 || !strings.Contains(f.Other[0], "ipv4") {
		t.Errorf("Other = %v", f.Other)
	}
	if len(f.Summaries) != 1 || f.Summaries[0].Count != 3 {
		t.Errorf("Summaries = %v", f.Summaries)
	}
	rec := f.ASNs[1]
	if rec.ASN != 205334 || rec.CC != "IT" || rec.Date != dates.MustParse("2017-09-20") ||
		rec.Status != StatusAllocated || rec.OpaqueID != "opq-002" {
		t.Errorf("record = %+v", rec)
	}
	avail := f.ASNs[2]
	if avail.Status != StatusAvailable || avail.Date != dates.None || avail.CC != "" {
		t.Errorf("available record = %+v", avail)
	}
}

const sampleRegular = `2|arin|20040101|2|19840101|20040101|-0500
arin|*|asn|*|2|summary
arin|US|asn|701|1|19900801|allocated
arin|US|asn|702|1|19910301|assigned
`

func TestParseRegular(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleRegular))
	if err != nil {
		t.Fatal(err)
	}
	if f.Extended {
		t.Error("regular file misdetected as extended")
	}
	if len(f.ASNs) != 2 {
		t.Fatalf("ASNs = %d", len(f.ASNs))
	}
	if f.ASNs[1].Status != StatusAssigned {
		t.Errorf("status = %v", f.ASNs[1].Status)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"not|a|header",
		"2|nowhere|20040101|1|19840101|20040101|-0500",
		"2|arin|20040101|x|19840101|20040101|-0500",
		"2|arin|20040101|1|1984|20040101|-0500",
	}
	for _, h := range bad {
		if _, err := Parse(strings.NewReader(h + "\n")); err == nil {
			t.Errorf("header %q should fail", h)
		}
	}
	badRecords := []string{
		"arin|US|asn|70x|1|19900801|allocated",
		"arin|US|asn|701|0|19900801|allocated",
		"arin|US|asn|701|1|19900801|borrowed",
		"arin|US|mystery|701|1|19900801|allocated",
		"arin|US|asn|701|1|19901301|allocated",
		"arin|US|asn",
	}
	for _, rec := range badRecords {
		input := "2|arin|20040101|1|19840101|20040101|-0500\n" + rec + "\n"
		if _, err := Parse(strings.NewReader(input)); err == nil {
			t.Errorf("record %q should fail strict parse", rec)
		}
		f, errs := ParseLenient(strings.NewReader(input))
		if f == nil || len(errs) != 1 {
			t.Errorf("lenient parse of %q: file=%v errs=%v", rec, f != nil, errs)
		}
	}
}

func TestParseLenientKeepsGoodLines(t *testing.T) {
	input := `2|arin|20040101|3|19840101|20040101|-0500
arin|US|asn|701|1|19900801|allocated
arin|US|asn|garbage|1|19900801|allocated
arin|US|asn|702|1|19910301|allocated
`
	f, errs := ParseLenient(strings.NewReader(input))
	if len(errs) != 1 {
		t.Fatalf("errs = %v", errs)
	}
	if len(f.ASNs) != 2 {
		t.Errorf("kept %d records, want 2", len(f.ASNs))
	}
	if errs[0].Line != 3 {
		t.Errorf("error line = %d", errs[0].Line)
	}
}

func TestEmptyInput(t *testing.T) {
	f, errs := ParseLenient(strings.NewReader(""))
	if f != nil || len(errs) == 0 {
		t.Error("empty input should yield nil file and an error")
	}
}

func TestWriteToRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleExtended))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(sortedRecords(f.ASNs), sortedRecords(f2.ASNs)) {
		t.Errorf("records differ:\n%v\n%v", f.ASNs, f2.ASNs)
	}
	if f2.Registry != f.Registry || f2.Start != f.Start || f2.End != f.End {
		t.Error("header fields differ after round trip")
	}
}

func sortedRecords(in []Record) []Record {
	out := make([]Record, len(in))
	copy(out, in)
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j].ASN < out[i].ASN {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func TestExpandBlocks(t *testing.T) {
	input := `2|apnic|20100101|1|19930901|20100101|+1000
apnic|JP|asn|131072|4|20100101|allocated|opq-nir
`
	f, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	exp := f.Expand()
	if len(exp) != 4 {
		t.Fatalf("Expand = %d records", len(exp))
	}
	for i, r := range exp {
		if r.ASN != asn.ASN(131072+i) || r.Count != 1 || r.OpaqueID != "opq-nir" {
			t.Errorf("expanded[%d] = %+v", i, r)
		}
	}
}

func TestStatusParsing(t *testing.T) {
	for _, s := range []Status{StatusAvailable, StatusAllocated, StatusAssigned, StatusReserved} {
		f, err := Parse(strings.NewReader("2|arin|20040101|1|19840101|20040101|-0500\n" +
			"arin|US|asn|701|1|19900801|" + s.String() + "\n"))
		if err != nil || len(f.ASNs) != 1 || f.ASNs[0].Status != s {
			t.Errorf("parsing status %q: %v, %+v", s.String(), err, f)
		}
	}
	if StatusAvailable.Delegated() || StatusReserved.Delegated() {
		t.Error("available/reserved are not delegated")
	}
	if !StatusAllocated.Delegated() || !StatusAssigned.Delegated() {
		t.Error("allocated/assigned are delegated")
	}
}

func TestQuickRecordLineRoundTrip(t *testing.T) {
	statuses := []Status{StatusAvailable, StatusAllocated, StatusAssigned, StatusReserved}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rec := Record{
			Registry: asn.RIR(r.Intn(int(asn.NumRIRs))),
			ASN:      asn.ASN(r.Uint32()),
			Count:    1 + r.Intn(8),
			Status:   statuses[r.Intn(len(statuses))],
		}
		if rec.Status.Delegated() {
			rec.CC = string([]byte{byte('A' + r.Intn(26)), byte('A' + r.Intn(26))})
			rec.Date = dates.Day(40000 + r.Intn(20000))
		} else {
			rec.Date = dates.None
		}
		for _, extended := range []bool{false, true} {
			if extended {
				rec.OpaqueID = "opq-" + rec.ASN.String()
			} else {
				rec.OpaqueID = ""
			}
			hdr := "2|" + rec.Registry.Token() + "|20210301|1|19840101|20210301|+0000\n"
			file, err := Parse(strings.NewReader(hdr + rec.Line(extended) + "\n"))
			if err != nil || len(file.ASNs) != 1 {
				return false
			}
			if file.ASNs[0] != rec {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
