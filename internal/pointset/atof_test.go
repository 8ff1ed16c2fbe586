package pointset

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// numberEdges are literals at the conversion's corners: signed zeros, the
// ends of the subnormal, normal and finite ranges and the halfway points
// between them, overflow and underflow, integers past 2^53, halfway cases
// the fast paths must refuse, mantissas of 19 digits and more (zeros and
// not past the 19th), exponents past readFloat's cap of 10,000, and
// literals long enough that ParseFloat's own slow path drops digits.
var numberEdges = []string{
	"0", "-0", "0.0", "-0.0e-0", "0e999999", "-0E+400", "0.000", "1", "-1", "1.5", "0.1", "-0.3",
	"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400", "-1e-400",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.7976931348623159e308",
	"1e308", "1e309", "1e999", "-1e999", "1E+999", "1e22", "1e23", "1e-22", "1e-23", "123456789e30", "8.41e21",
	"9007199254740992", "9007199254740993", "9007199254740993.0000000000001", "4503599627370496.5",
	"4503599627370497.5", "7.2057594037927933e16", "9999999999999999999", "10000000000000000000",
	"18446744073709551615", "18446744073709551616", "1.0000000000000000000000001",
	"123456789012345678901234567890", "-1.23456789012345678901234567890e-300", "0.000000000000000000000000000001",
	"1" + strings.Repeat("0", 400), "0." + strings.Repeat("0", 400) + "1", "1" + strings.Repeat("0", 1000) + "e-1000",
	"1" + strings.Repeat("0", 10000) + "e-100000", "0." + strings.Repeat("0", 10000) + "1e100005",
	"1e-10000000000000000000", "1e10000000000000000000", "0.12345678901234567890123456789e-00000000000000000001",
}

// numberErr scans lit as the codec does, followed by a comma, and reports
// how the scan fails to end at the comma with lit, ParseFloat's bits, and
// ±Inf exactly where ParseFloat reports overflow.
func numberErr(lit string) error {
	s := scanner{data: []byte(lit + ",")}
	got, x, err := s.number()
	if err != nil || s.off != len(lit) || string(got) != lit {
		return fmt.Errorf("%q: scan ended at %d with %v, want %d", lit, s.off, err, len(lit))
	}
	want, werr := strconv.ParseFloat(lit, 64)
	if werr != nil && !errors.Is(werr, strconv.ErrRange) {
		return fmt.Errorf("%q is no number: %v", lit, werr)
	}
	if math.Float64bits(x) != math.Float64bits(want) {
		return fmt.Errorf("%q: got %v (%#x), ParseFloat %v (%#x)", lit, x, math.Float64bits(x), want, math.Float64bits(want))
	}
	if math.IsInf(x, 0) != (werr != nil) {
		return fmt.Errorf("%q: got %v, ParseFloat's error %v", lit, x, werr)
	}
	return nil
}

func TestNumberEdges(t *testing.T) {
	for _, lit := range numberEdges {
		if err := numberErr(lit); err != nil {
			t.Error(err)
		}
	}
}

// TestNumberEveryPow10Row writes mantissas around the fast paths' limits
// as m·10^q for every q in pow10's range, with the point in several places
// and both signs, so every row of the table that can decide a value
// decides some here.
func TestNumberEveryPow10Row(t *testing.T) {
	mantissas := []string{"1", "9", "4503599627370495", "4503599627370497", "9007199254740991",
		"9007199254740993", "9999999999999999999", "12345678901234567", "1234567890123456789012345"}
	for q := minExp10; q <= maxExp10; q++ {
		for _, m := range mantissas {
			n := len(m)
			lits := []string{m + "e" + strconv.Itoa(q), fmt.Sprintf("0.%sE%+d", m, q+n)}
			for _, p := range []int{1, n / 2} {
				if 0 < p && p < n {
					lits = append(lits, fmt.Sprintf("%s.%se%+d", m[:p], m[p:], q+n-p))
				}
			}
			for _, lit := range lits {
				for _, lit := range []string{lit, "-" + lit} {
					if err := numberErr(lit); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestNumberRandom checks 1,000,000 seeded literals: shortest encodings of
// floats (random bits, the benchmark's coordinates, normals scaled by
// random powers of ten) in three formats, and up to 30 random digits, zeros
// trailing at random, with a random point and an exponent in ±350.
func TestNumberRandom(t *testing.T) {
	rng := xrand.New(29)
	var b []byte
	for range 1_000_000 {
		b = b[:0]
		if rng.Intn(2) == 0 {
			var x float64
			switch rng.Intn(3) {
			case 0:
				if x = math.Float64frombits(rng.Uint64()); math.IsNaN(x) || math.IsInf(x, 0) {
					x = 0
				}
			case 1:
				x = rng.Uniform(0, 4)
			default:
				x = rng.NormFloat64() * math.Pow(10, float64(rng.IntRange(-30, 30)))
			}
			switch f := rng.Intn(3); {
			case f == 0:
				b = appendFloat(b, x)
			case f == 1 || math.Abs(x) > 1e30 || math.Abs(x) < 1e-30: // 'f' only where it stays short
				b = strconv.AppendFloat(b, x, 'e', -1, 64)
			default:
				b = strconv.AppendFloat(b, x, 'f', -1, 64)
			}
		} else {
			b = randomDigits(b, rng)
		}
		if err := numberErr(string(b)); err != nil {
			t.Fatal(err)
		}
	}
}

// randomDigits appends a literal of up to 30 random digits, with zeros
// trailing at random, a random point, and an exponent in ±350 three times
// in four.
func randomDigits(b []byte, rng *xrand.Rand) []byte {
	if rng.Intn(2) == 0 {
		b = append(b, '-')
	}
	n := rng.IntRange(1, 30)
	ds := make([]byte, n)
	zeros := n
	if rng.Intn(4) == 0 {
		zeros = rng.Intn(n)
	}
	for i := range ds {
		ds[i] = '0'
		if i < zeros {
			ds[i] += byte(rng.Intn(10))
		}
	}
	if p := rng.Intn(n + 1); p == 0 {
		b = append(append(b, "0."...), ds...)
	} else {
		ds[0] = byte('1' + rng.Intn(9))
		b = append(b, ds[:p]...)
		if p < n {
			b = append(append(b, '.'), ds[p:]...)
		}
	}
	if rng.Intn(4) > 0 {
		b = append(b, "eE"[rng.Intn(2)])
		e := rng.IntRange(-350, 350)
		if e >= 0 && rng.Intn(2) == 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return b
}

// TestPow10Rows derives every row of pow10 a second way, by truncating
// quotients and products of big.Floats, and pins three rows to the values
// strconv lists, so a changed row fails here even where no float64 can
// tell.
func TestPow10Rows(t *testing.T) {
	for q := minExp10; q <= maxExp10; q++ {
		p := new(big.Float).SetPrec(4096).SetMode(big.ToZero).SetInt64(1)
		for range max(q, -q) {
			p.Mul(p, big.NewFloat(10))
		}
		if q < 0 {
			p.Quo(new(big.Float).SetPrec(4096).SetMode(big.ToZero).SetInt64(1), p)
		}
		mant := new(big.Float).SetMode(big.ToZero)
		p.MantExp(mant) // p = mant·2^e with mant in [0.5, 1)
		m, _ := mant.SetMantExp(mant, 128).Int(nil)
		want := [2]uint64{new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64)).Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
		if pow10[q-minExp10] != want {
			t.Fatalf("10^%d: row %#x, want %#x", q, pow10[q-minExp10], want)
		}
	}
	for _, row := range []struct {
		q      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{0, 0, 0x8000000000000000},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10[row.q-minExp10]; got != [2]uint64{row.lo, row.hi} {
			t.Errorf("10^%d: row %#x, strconv lists {%#x, %#x}", row.q, got, row.lo, row.hi)
		}
	}
}

// isNumber reports whether encoding/json reads s as one JSON number.
func isNumber(s string) bool {
	return s != "" && startsNumber(int(s[0])) && !strings.ContainsAny(s, " \t\r\n") && json.Valid([]byte(s))
}

// FuzzNumber holds the scanner's number to encoding/json's grammar and
// ParseFloat's value: it scans the whole input exactly when the input is a
// JSON number, it stops only where the next byte cannot continue the
// number, and what it scans has ParseFloat's bits, ±Inf exactly where
// ParseFloat reports overflow.
//
//	go test -run '^$' -fuzz '^FuzzNumber$' -fuzztime 20s ./internal/pointset
func FuzzNumber(f *testing.F) {
	for _, lit := range numberEdges {
		if len(lit) <= 100 { // longer seeds slow every mutation down
			f.Add(lit)
		}
	}
	for _, lit := range []string{"", "-", "01", "1.", ".5", "+1", "1e", "1e+", "1.5e-", "-01.5", "0x10", "1_000", "Inf", "1 ", "2]", "3.25e7,"} {
		f.Add(lit)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s := scanner{data: []byte(in)}
		lit, x, err := s.number()
		if whole := err == nil && s.off == len(in); whole != isNumber(in) {
			t.Fatalf("%q: scanned whole %v (to %d, %v), a JSON number %v", in, whole, s.off, err, !whole)
		}
		if err != nil {
			return
		}
		if string(lit) != in[:s.off] || !isNumber(string(lit)) {
			t.Fatalf("%q: scanned %q, no JSON number", in, lit)
		}
		if s.off < len(in) && isNumber(in[:s.off+1]+"0") {
			t.Fatalf("%q: scan stopped at %d, inside the number", in, s.off)
		}
		if err := numberErr(string(lit)); err != nil {
			t.Fatal(err)
		}
		if want, _ := strconv.ParseFloat(string(lit), 64); math.Float64bits(x) != math.Float64bits(want) {
			t.Fatalf("%q: got %v, ParseFloat %v", in, x, want)
		}
	})
}
