// Package dates provides day-granularity civil-date arithmetic.
//
// All datasets in this project — RIR delegation files and daily BGP
// activity — have day resolution, so the package represents a date as a
// single integer Day (days since the modified Julian epoch, 1858-11-17).
// Day values are cheap to compare, subtract, and use as map keys or slice
// indexes, which matters when sweeping 17 years of daily records.
//
// The civil-calendar conversion uses Howard Hinnant's algorithms
// (days_from_civil / civil_from_days), valid for all proleptic Gregorian
// dates handled here (1900–2100 and far beyond).
package dates

import (
	"errors"
	"fmt"
)

// Day counts days since the modified Julian epoch 1858-11-17 (MJD 0).
// The zero value is therefore a valid date far before any dataset used by
// this project; callers that need a "no date" sentinel should use None.
type Day int32

// None is a sentinel meaning "no date". It is far before any valid record
// date in the datasets (it corresponds to a date deep in the past).
const None Day = -1 << 30

// daysFromCivilToMJD is the value of days_from_civil(1858, 11, 17), the
// day offset of the MJD epoch from the 0000-03-01 era used by the
// conversion algorithm.
const mjdEpochFromEra = 678881

// FromYMD converts a civil date to a Day. Months are 1–12 and days 1–31;
// out-of-range inputs follow the proleptic Gregorian rollover rules of the
// underlying algorithm (use Valid to reject them beforehand).
func FromYMD(year, month, day int) Day {
	y := year
	if month <= 2 {
		y--
	}
	var era int
	if y >= 0 {
		era = y / 400
	} else {
		era = (y - 399) / 400
	}
	yoe := y - era*400 // [0, 399]
	var mp int
	if month > 2 {
		mp = month - 3
	} else {
		mp = month + 9
	}
	doy := (153*mp+2)/5 + day - 1          // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return Day(era*146097 + doe - mjdEpochFromEra)
}

// YMD converts a Day back to its civil year, month and day.
func (d Day) YMD() (year, month, day int) {
	z := int(d) + mjdEpochFromEra
	var era int
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	day = doy - (153*mp+2)/5 + 1             // [1, 31]
	if mp < 10 {
		month = mp + 3
	} else {
		month = mp - 9
	}
	if month <= 2 {
		y++
	}
	return y, month, day
}

// Year returns the civil year of d.
func (d Day) Year() int {
	y, _, _ := d.YMD()
	return y
}

// Quarter returns an absolute quarter index (year*4 + quarter-within-year),
// suitable for 3-month binning across year boundaries.
func (d Day) Quarter() int {
	y, m, _ := d.YMD()
	return y*4 + (m-1)/3
}

// QuarterStart returns the first day of the absolute quarter index q.
func QuarterStart(q int) Day {
	return FromYMD(q/4, (q%4)*3+1, 1)
}

// AddDays returns d shifted by n days.
func (d Day) AddDays(n int) Day { return d + Day(n) }

// Sub returns the number of days from other to d (d - other).
func (d Day) Sub(other Day) int { return int(d) - int(other) }

// Before reports whether d is strictly before other.
func (d Day) Before(other Day) bool { return d < other }

// After reports whether d is strictly after other.
func (d Day) After(other Day) bool { return d > other }

// String renders the date as YYYY-MM-DD, or "-" for None.
func (d Day) String() string {
	if d == None {
		return "-"
	}
	y, m, dd := d.YMD()
	if y < 0 || y > 9999 {
		return fmt.Sprintf("%04d-%02d-%02d", y, m, dd)
	}
	b := [10]byte{
		byte('0' + y/1000), byte('0' + y/100%10), byte('0' + y/10%10), byte('0' + y%10), '-',
		byte('0' + m/10), byte('0' + m%10), '-',
		byte('0' + dd/10), byte('0' + dd%10)}
	return string(b[:])
}

// Compact renders the date as YYYYMMDD (the delegation-file date format),
// or the conventional placeholder "00000000" for None.
func (d Day) Compact() string {
	var buf [8]byte
	return string(d.AppendCompact(buf[:0]))
}

// AppendCompact appends the YYYYMMDD form of d to dst and returns the
// extended slice — the allocation-free form of Compact for render loops
// that serialize one line per record.
func (d Day) AppendCompact(dst []byte) []byte {
	if d == None {
		return append(dst, "00000000"...)
	}
	y, m, dd := d.YMD()
	return append(dst,
		byte('0'+y/1000%10), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10),
		byte('0'+m/10), byte('0'+m%10),
		byte('0'+dd/10), byte('0'+dd%10))
}

var errBadDate = errors.New("dates: malformed date")

// Valid reports whether (year, month, day) is a real calendar date.
func Valid(year, month, day int) bool {
	if month < 1 || month > 12 || day < 1 {
		return false
	}
	return day <= DaysInMonth(year, month)
}

// DaysInMonth returns the number of days in the given month.
func DaysInMonth(year, month int) int {
	switch month {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	case 2:
		if IsLeap(year) {
			return 29
		}
		return 28
	}
	return 0
}

// IsLeap reports whether year is a Gregorian leap year.
func IsLeap(year int) bool {
	return year%4 == 0 && (year%100 != 0 || year%400 == 0)
}

func digits[T string | []byte](s T) (int, bool) {
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Parse parses YYYY-MM-DD.
func Parse(s string) (Day, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return None, fmt.Errorf("%w: %q", errBadDate, s)
	}
	y, ok1 := digits(s[:4])
	m, ok2 := digits(s[5:7])
	d, ok3 := digits(s[8:])
	if !ok1 || !ok2 || !ok3 || !Valid(y, m, d) {
		return None, fmt.Errorf("%w: %q", errBadDate, s)
	}
	return FromYMD(y, m, d), nil
}

// ParseCompact parses YYYYMMDD, the date format used inside RIR delegation
// files. The all-zero placeholder "00000000" parses to None with no error,
// matching how the files use it for resources with unknown dates.
func ParseCompact(s string) (Day, error) { return parseCompact(s) }

// ParseCompactBytes is ParseCompact over a byte slice, allocating only on
// the error path.
func ParseCompactBytes(s []byte) (Day, error) { return parseCompact(s) }

func parseCompact[T string | []byte](s T) (Day, error) {
	if len(s) != 8 {
		return None, fmt.Errorf("%w: %q", errBadDate, s)
	}
	if string(s) == "00000000" {
		return None, nil
	}
	y, ok1 := digits(s[:4])
	m, ok2 := digits(s[4:6])
	d, ok3 := digits(s[6:])
	if !ok1 || !ok2 || !ok3 || !Valid(y, m, d) {
		return None, fmt.Errorf("%w: %q", errBadDate, s)
	}
	return FromYMD(y, m, d), nil
}

// MustParse is Parse that panics on error; for tests and fixed constants.
func MustParse(s string) Day {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

// Unix returns the Unix timestamp (seconds) of midnight UTC on d.
// MJD 40587 is 1970-01-01.
func (d Day) Unix() int64 { return int64(d-40587) * 86400 }

// FromUnix converts a Unix timestamp to the Day containing it (UTC).
func FromUnix(sec int64) Day {
	days := sec / 86400
	if sec < 0 && sec%86400 != 0 {
		days--
	}
	return Day(days + 40587)
}

// Min returns the earlier of a and b.
func Min(a, b Day) Day {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of a and b.
func Max(a, b Day) Day {
	if a > b {
		return a
	}
	return b
}
