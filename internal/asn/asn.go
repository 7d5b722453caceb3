// Package asn defines Autonomous System Number types and registries.
//
// It carries the vocabulary shared by every other package: the ASN value
// type, the 16/32-bit split introduced by RFC 6793, the special-purpose
// ("bogon") number registry the paper excludes from its §6.4 analysis, the
// five Regional Internet Registries, and the digit-similarity predicates
// behind the fat-finger misconfiguration classifier.
package asn

import (
	"fmt"
	"strconv"
)

// ASN is an Autonomous System Number. BGP has carried 4-octet AS numbers
// since RFC 6793, so the full uint32 range is valid on the wire.
type ASN uint32

// ASTrans is AS_TRANS (RFC 6793), the 2-octet placeholder substituted for
// 4-octet ASNs when speaking to OLD BGP speakers.
const ASTrans ASN = 23456

// Max16Bit is the largest 2-octet AS number.
const Max16Bit ASN = 65535

// Is32Bit reports whether a requires the 4-octet encoding (i.e. it does
// not fit in 16 bits). The paper calls these "32-bit ASNs".
func (a ASN) Is32Bit() bool { return a > Max16Bit }

// String renders the ASN in "asplain" notation (RFC 5396), e.g. "64501".
func (a ASN) String() string { return strconv.FormatUint(uint64(a), 10) }

// Parse parses an asplain ASN string.
func Parse(s string) (ASN, error) {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("asn: invalid ASN %q: %w", s, err)
	}
	return ASN(v), nil
}

// DigitLen returns the number of decimal digits of the ASN.
func (a ASN) DigitLen() int { return len(a.String()) }

// Reserved reports whether a is a special-purpose AS number that operators
// conventionally filter as a "bogon". The registry follows IANA's
// Special-Purpose AS Numbers registry and the RFCs the paper cites
// (RFC 1930/5398/6996/7300/7607 and AS112 operations, RFC 7534):
//
//	0                        RFC 7607  (may not be used)
//	112                      RFC 7534  (AS112 project)
//	23456                    RFC 6793  (AS_TRANS)
//	64496–64511              RFC 5398  (documentation)
//	64512–65534              RFC 6996  (private use, 16-bit)
//	65535                    RFC 7300  (last 16-bit)
//	65536–65551              RFC 5398  (documentation, 32-bit)
//	4200000000–4294967294    RFC 6996  (private use, 32-bit)
//	4294967295               RFC 7300  (last 32-bit)
func (a ASN) Reserved() bool {
	switch {
	case a == 0:
		return true
	case a == 112:
		return true
	case a == ASTrans:
		return true
	case a >= 64496 && a <= 64511:
		return true
	case a >= 64512 && a <= 65534:
		return true
	case a == 65535:
		return true
	case a >= 65536 && a <= 65551:
		return true
	case a >= 4200000000 && a <= 4294967294:
		return true
	case a == 4294967295:
		return true
	}
	return false
}

// RIR identifies one of the five Regional Internet Registries.
type RIR uint8

// The five RIRs, in the order the paper's tables list them.
const (
	AfriNIC RIR = iota
	APNIC
	ARIN
	LACNIC
	RIPENCC
	NumRIRs = 5
)

// All lists the RIRs in canonical (paper table) order.
func All() []RIR { return []RIR{AfriNIC, APNIC, ARIN, LACNIC, RIPENCC} }

var rirNames = [NumRIRs]string{"AfriNIC", "APNIC", "ARIN", "LACNIC", "RIPE NCC"}

// delegation-file registry tokens, lower case (column 1 of the files).
var rirTokens = [NumRIRs]string{"afrinic", "apnic", "arin", "lacnic", "ripencc"}

// String returns the display name, e.g. "RIPE NCC".
func (r RIR) String() string {
	if int(r) < len(rirNames) {
		return rirNames[r]
	}
	return fmt.Sprintf("RIR(%d)", uint8(r))
}

// Token returns the registry token used in delegation files, e.g. "ripencc".
func (r RIR) Token() string {
	if int(r) < len(rirTokens) {
		return rirTokens[r]
	}
	return "unknown"
}

// ParseRIR maps a delegation-file registry token to an RIR.
func ParseRIR(token string) (RIR, error) {
	for i, t := range rirTokens {
		if t == token {
			return RIR(i), nil
		}
	}
	return 0, fmt.Errorf("asn: unknown registry %q", token)
}

// ExactRepetition reports whether candidate's decimal form is the decimal
// form of reference written exactly twice — e.g. 3202632026 vs 32026 —
// the digit-doubling signature of a failed AS-path prepend (§6.4).
func ExactRepetition(candidate, reference ASN) bool {
	if candidate == reference {
		return false
	}
	r := reference.String()
	return candidate.String() == r+r
}

// OneDigitOff reports whether the decimal forms of a and b have the same
// length and differ in exactly one digit position — e.g. 419333 vs 41933
// is NOT (length differs) but 363690 vs 393690 is. This is the §6.4
// signature of a mistyped origin causing a MOAS conflict.
func OneDigitOff(a, b ASN) bool {
	sa, sb := a.String(), b.String()
	if len(sa) != len(sb) || a == b {
		return false
	}
	diff := 0
	for i := 0; i < len(sa); i++ {
		if sa[i] != sb[i] {
			diff++
			if diff > 1 {
				return false
			}
		}
	}
	return diff == 1
}
