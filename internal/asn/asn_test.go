package asn

import (
	"testing"
	"testing/quick"
)

func TestIs32Bit(t *testing.T) {
	if ASN(65535).Is32Bit() {
		t.Error("65535 is 16-bit")
	}
	if !ASN(65536).Is32Bit() {
		t.Error("65536 is 32-bit")
	}
	if ASN(1).Is32Bit() {
		t.Error("1 is 16-bit")
	}
	if !ASN(4200000000).Is32Bit() {
		t.Error("4200000000 is 32-bit")
	}
}

func TestParse(t *testing.T) {
	a, err := Parse("205334")
	if err != nil || a != 205334 {
		t.Errorf("Parse = %v, %v", a, err)
	}
	if _, err := Parse("4294967296"); err == nil {
		t.Error("expected overflow error")
	}
	if _, err := Parse("-1"); err == nil {
		t.Error("expected sign error")
	}
	if _, err := Parse("1.10"); err == nil {
		t.Error("asdot should not parse as asplain")
	}
}

func TestReserved(t *testing.T) {
	reserved := []ASN{0, 112, 23456, 64496, 64511, 64512, 65000, 65534, 65535,
		65536, 65551, 4200000000, 4294967294, 4294967295}
	for _, a := range reserved {
		if !a.Reserved() {
			t.Errorf("ASN %d should be reserved", a)
		}
	}
	unreserved := []ASN{1, 111, 113, 23455, 23457, 64495, 65552, 131072,
		4199999999, 3356, 205334}
	for _, a := range unreserved {
		if a.Reserved() {
			t.Errorf("ASN %d should not be reserved", a)
		}
	}
}

func TestRIRRoundTrip(t *testing.T) {
	for _, r := range All() {
		got, err := ParseRIR(r.Token())
		if err != nil || got != r {
			t.Errorf("ParseRIR(%q) = %v, %v", r.Token(), got, err)
		}
	}
	if _, err := ParseRIR("iana"); err == nil {
		t.Error("expected error for unknown registry")
	}
	if RIPENCC.String() != "RIPE NCC" || AfriNIC.String() != "AfriNIC" {
		t.Error("display names wrong")
	}
}

func TestExactRepetition(t *testing.T) {
	// The paper's example: AS3202632026 where the first hop is AS32026.
	if !ExactRepetition(3202632026, 32026) {
		t.Error("3202632026 is 32026 doubled")
	}
	if ExactRepetition(32026, 32026) {
		t.Error("identity is not a repetition")
	}
	if ExactRepetition(3202632027, 32026) {
		t.Error("3202632027 is not 32026 doubled")
	}
	if !ExactRepetition(701701, 701) {
		t.Error("701701 is 701 doubled")
	}
}

func TestOneDigitOff(t *testing.T) {
	// Paper example: AS363690 MOAS with AS393690.
	if !OneDigitOff(363690, 393690) {
		t.Error("363690 vs 393690 differ by one digit")
	}
	if OneDigitOff(363690, 363690) {
		t.Error("equal ASNs are not one digit off")
	}
	if OneDigitOff(419333, 41933) {
		t.Error("different lengths are not one-digit-off")
	}
	if OneDigitOff(363690, 393790) {
		t.Error("two digits differ")
	}
}

func TestQuickOneDigitOffSymmetric(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := ASN(a), ASN(b)
		return OneDigitOff(x, y) == OneDigitOff(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRepetitionImpliesDoubleLength(t *testing.T) {
	f := func(a uint16) bool {
		ref := ASN(a%60000 + 1)
		doubled := ref.String() + ref.String()
		cand, err := Parse(doubled)
		if err != nil {
			return true // doubling overflowed 32 bits; nothing to check
		}
		return ExactRepetition(cand, ref) && cand.DigitLen() == 2*ref.DigitLen()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
