// Copyright 2009 The Go Authors. All rights reserved.
// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE-GO file.

package pointset

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// This file turns the digits the scanner accumulates while it checks a
// number's grammar into a float64 with strconv.ParseFloat's bits, so the
// codec reads every number once. The accumulation follows strconv's
// readFloat and the conversion its atof64: exact float arithmetic, then the
// Eisel–Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per
// Second", 2021), then strconv.ParseFloat on the literal where both
// decline. exactFloat and eiselLemire are adapted from Go 1.24's strconv
// (atof.go, eisel_lemire.go).

// decimal is a number's digits as readFloat reads them. man holds the first
// 19 significant digits (a leading zero is not significant), kept counts
// them and nd every significant digit; trunc is set when a dropped digit is
// not 0. The value is ±0.d₁d₂…×10^dp.
type decimal struct {
	man        uint64
	nd, kept   int
	dp         int
	neg, trunc bool
}

// digits accumulates the run of digits at d[i:] and returns the index of
// the first byte after it. Once a significant digit has been seen, it takes
// eight digits per step while they follow and man has room for them.
func (a *decimal) digits(d []byte, i int) int {
	if a.nd == 0 {
		for ; i < len(d) && d[i] == '0'; i++ {
			a.dp--
		}
		if i == len(d) || !isDigit(d[i]) {
			return i
		}
		a.man, a.nd, a.kept = uint64(d[i]-'0'), 1, 1
		i++
	}
	for a.kept <= 11 && i+8 <= len(d) {
		v := binary.LittleEndian.Uint64(d[i:])
		if !eightDigits(v) {
			break
		}
		a.man = a.man*1e8 + parseEight(v)
		a.nd += 8
		a.kept += 8
		i += 8
	}
	for ; i < len(d) && isDigit(d[i]); i++ {
		a.nd++
		if a.kept < 19 {
			a.man = a.man*10 + uint64(d[i]-'0')
			a.kept++
		} else if d[i] != '0' {
			a.trunc = true
		}
	}
	return i
}

// eightDigits reports whether all eight bytes of v are ASCII digits: a byte
// below '0' sets its top bit in v-0x30…, one above '9' in v+0x46…, and the
// lowest such byte borrows or carries nothing from the bytes below it.
func eightDigits(v uint64) bool {
	return ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 == 0
}

// parseEight returns the value of the eight ASCII digits in v, the first
// in the low byte, by combining adjacent pairs, then quads, then halves.
func parseEight(v uint64) uint64 {
	const mask = 0x000000FF000000FF
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&mask)*(100+1000000<<32) + (v>>16&mask)*(1+10000<<32)) >> 32
}

// float returns the number's value with strconv.ParseFloat's bits, and ±Inf
// exactly where ParseFloat reports overflow. lit is the number's text.
func (a *decimal) float(lit []byte) float64 {
	exp := 0
	if a.man != 0 {
		exp = a.dp - a.kept
	}
	if !a.trunc {
		if f, ok := exactFloat(a.man, exp, a.neg); ok {
			return f
		}
	}
	if f, ok := eiselLemire(a.man, exp, a.neg); ok {
		if !a.trunc {
			return f
		}
		// The digits lie between man and man+1: f is the value only when
		// both bounds round to it.
		if up, ok := eiselLemire(a.man+1, exp, a.neg); ok && up == f {
			return f
		}
	}
	f, _ := strconv.ParseFloat(string(lit), 64) // an overflow is ±Inf
	return f
}

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat is strconv's atof64exact: man·10^exp in one correctly rounded
// operation on exact operands, when there is one.
func exactFloat(man uint64, exp int, neg bool) (f float64, ok bool) {
	if man>>52 != 0 {
		return 0, false
	}
	f = float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 15+22: // exact integers are ≤ 10^15
		if exp > 22 { // move zeros into the integer
			f *= exactPow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * exactPow10[exp], true
	case exp < 0 && exp >= -22:
		return f / exactPow10[-exp], true
	}
	return 0, false
}

// eiselLemire is strconv's eiselLemire64. It declines (ok false) where
// man·10^exp10 is too close to halfway between two floats to decide from
// 128 bits, and where the result is subnormal, infinite or out of pow10's
// range.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}
	// Normalize, then multiply by the 128-bit power of ten.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)
	row := &pow10[exp10-minExp10]
	xHi, xLo := bits.Mul64(man, row[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man { // widen the approximation
		yHi, yLo := bits.Mul64(man, row[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	// Shift to 54 bits, refuse a halfway case, round to 53.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 { // subnormal, or ±Inf
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}

// The range of exponents pow10 covers, strconv's as well.
const minExp10, maxExp10 = -348, 347

// pow10 holds, for q in [minExp10, maxExp10], the 128-bit mantissa of 10^q
// rounded down, as {lo, hi}: the table strconv lists as
// detailedPowersOfTen, built once per process instead of listed.
var pow10 = pow10Table()

func pow10Table() (t [maxExp10 - minExp10 + 1][2]uint64) {
	var buf [16]byte
	set := func(q int, m *big.Int) {
		m.FillBytes(buf[:])
		t[q-minExp10] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	ten, p, m := big.NewInt(10), big.NewInt(1), new(big.Int)
	for q := 0; q <= -minExp10; q++ { // p = 10^q, of b bits
		b := p.BitLen()
		if q <= maxExp10 {
			if b > 128 {
				m.Rsh(p, uint(b-128))
			} else {
				m.Lsh(p, uint(128-b))
			}
			set(q, m)
		}
		if q > 0 { // 10^q is no power of two, so 2^(b+127)/10^q is in (2^127, 2^128)
			set(-q, m.Quo(m.Lsh(big.NewInt(1), uint(b+127)), p))
		}
		p.Mul(p, ten)
	}
	return t
}
