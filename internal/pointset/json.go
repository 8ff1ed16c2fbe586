package pointset

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// ErrDecode marks every error UnmarshalJSON returns: the value was valid
// JSON for the decoder around it but is not a valid set. Callers that map
// decode failures to wire errors (the serving layer) test for it with
// errors.Is to tell an invalid instance from a malformed request.
var ErrDecode = errors.New("pointset: decode")

// ErrDim marks a JSON-encoded set whose dimensions disagree — points of
// mixed lengths, or a "dim" field contradicting the rows. It wraps
// ErrDecode; callers test for it with errors.Is to distinguish a dimension
// mismatch from other invalid input.
var ErrDim = fmt.Errorf("%w: inconsistent dimensions", ErrDecode)

// The wire form of a Set is row-major points plus parallel weights:
//
//	{"dim": 2, "points": [[0,1],[2,3]], "weights": [1, 5]}
//
// "dim" is redundant with the rows and optional on input; "weights" may be
// omitted (or null) for a unit-weight population. This one schema is shared
// by everything that moves point sets between processes — `cdtrace -format
// set` writes it and the cdserved /v1 endpoints read it — so instance
// parsing is implemented (and validated) exactly once, here.
//
// The codec below is hand-written: one left-to-right scan parses every
// number into chunks that are copied once into one flat coordinate array,
// and the encoder appends the bytes directly. A large "points" array is
// scanned in pieces on several goroutines that join into what that one scan
// gives (splitRows). It accepts, rejects and produces what encoding/json
// does for this schema, bit for bit (FuzzSetCodec holds it to that), with
// one exception: a null where a coordinate or weight belongs is an error
// here, where encoding/json reads it as 0.

// MarshalJSON implements json.Marshaler: the set serializes as its points
// and weights with an explicit dim, byte-identical to encoding/json's output
// for the same values.
func (s *Set) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil), nil }

// AppendJSON appends MarshalJSON's bytes to b, so a caller can write a set
// into a larger document without encoding/json scanning it again.
func (s *Set) AppendJSON(b []byte) []byte {
	b = slices.Grow(b, 64+20*(len(s.coords)+len(s.weights)))
	b = append(b, `{"dim":`...)
	b = strconv.AppendInt(b, int64(s.dim), 10)
	b = append(b, `,"points":[`...)
	for i := 0; i < s.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloats(b, s.Point(i))
	}
	b = append(b, ']')
	if len(s.weights) > 0 {
		b = append(b, `,"weights":`...)
		b = appendFloats(b, s.weights)
	}
	return append(b, '}')
}

// appendFloats appends xs as a JSON array.
func appendFloats(b []byte, xs []float64) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	return append(b, ']')
}

// appendFloat appends x the way encoding/json writes a float64: the
// shortest exact form, in 'f' format except outside [1e-6, 1e21), where it
// is 'e' with the exponent's leading zero dropped (1e-07 → 1e-7).
func appendFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// UnmarshalJSON implements json.Unmarshaler and is the wire boundary's
// validator: everything New checks, enforced here with decode-flavored
// errors, plus the wire-only holes New cannot see. A non-empty point list,
// a positive dimension (an empty row like [[]] must not produce a dim-0
// set), consistent dimensions (ErrDim otherwise), a weight per point, and
// non-negative weights with a finite sum. A number that overflows float64
// (1e999), a null coordinate or weight, and a value of the wrong JSON type
// are reported after the whole value has been scanned, ahead of those
// checks, as encoding/json reports type errors. Keys match as encoding/json
// matches field names (exactly, or equal under Unicode case folding); a
// repeated key keeps its last value; unknown keys are validated and
// skipped. Every error wraps ErrDecode.
func (s *Set) UnmarshalJSON(data []byte) error {
	sc := scanner{data: data}
	set, err := sc.set()
	if !isSyntax(err) && sc.peek() != end {
		err = sc.fail("after top-level value")
	}
	if err != nil {
		if !errors.Is(err, ErrDecode) {
			err = fmt.Errorf("%w: %w", ErrDecode, err)
		}
		return err
	}
	*s = *set
	return nil
}

// SplitMember walks the JSON object at the start of obj once, decoding the
// value of every member whose key matches key (as encoding/json matches a
// field name) as a Set, and returns the set from the last such member (nil
// when there is none or its value is null) together with rest, the object
// with those values replaced by null, for the caller's own decoder. Bytes
// after the object are ignored; when obj does not hold an object, rest is
// obj and the caller's decoder judges it.
//
// The error is a syntax error (not wrapping ErrDecode) when the object is
// malformed anywhere, nested deeper than encoding/json's 10,000 levels
// included; otherwise the first matched member's decode error. So a
// request whose envelope and instance are both invalid reports the
// instance, and a malformed one reports the syntax, as encoding/json would.
func SplitMember(obj []byte, key string) (set *Set, rest []byte, err error) {
	sc := scanner{data: obj}
	if sc.peek() != '{' {
		return nil, obj, nil
	}
	if empty, err := sc.open('}'); err != nil || empty {
		return nil, obj[:sc.off], err
	}
	var firstErr error
	prev := 0 // obj[:prev] is in rest, when rest is not nil
	for {
		name, escaped, err := sc.key()
		if err != nil {
			return nil, nil, err
		}
		if !matchKey(name, escaped, key) {
			if err := sc.skip(); err != nil {
				return nil, nil, err
			}
		} else {
			c := sc.peek()
			start := sc.off
			if c == 'n' {
				if err := sc.literal("null"); err != nil {
					return nil, nil, err
				}
				set = nil
			} else {
				var derr error
				set, derr = sc.set()
				if isSyntax(derr) {
					return nil, nil, derr
				}
				if firstErr == nil {
					firstErr = derr
				}
			}
			rest = append(append(rest, obj[prev:start]...), "null"...)
			prev = sc.off
		}
		if done, err := sc.next('}'); err != nil {
			return nil, nil, err
		} else if done {
			break
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if rest == nil {
		return set, obj[:sc.off], nil
	}
	return set, append(rest, obj[prev:sc.off]...), nil
}

// maxDepth is encoding/json's nesting limit: a value nested deeper is a
// syntax error there, and so here.
const maxDepth = 10000

// end is what peek reports at the end of the input.
const end = -1

// scanner reads JSON text left to right. depth counts the arrays and
// objects open around off.
type scanner struct {
	data  []byte
	off   int
	depth int
}

// syntaxError reports malformed JSON; it does not wrap ErrDecode, so a
// caller can tell a malformed body from an invalid set.
type syntaxError struct {
	msg string
	off int
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("invalid JSON at offset %d: %s", e.off, e.msg)
}

func isSyntax(err error) bool {
	var se *syntaxError
	return errors.As(err, &se)
}

// fail reports a syntax error at off: the byte there, or the end of input.
func (s *scanner) fail(context string) error {
	if s.off >= len(s.data) {
		return &syntaxError{"unexpected end of input", s.off}
	}
	return &syntaxError{fmt.Sprintf("invalid character %q %s", s.data[s.off], context), s.off}
}

// peek skips white space and returns the next byte, or end.
func (s *scanner) peek() int {
	for ; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return int(c)
		}
	}
	return end
}

// open consumes the '[' or '{' at off and, when the container is empty,
// its closing byte too.
func (s *scanner) open(closing byte) (empty bool, err error) {
	if s.depth++; s.depth > maxDepth {
		return false, &syntaxError{"exceeded max depth", s.off}
	}
	s.off++
	if s.peek() == int(closing) {
		s.off++
		s.depth--
		return true, nil
	}
	return false, nil
}

// next consumes the ',' between two elements or the closing byte, and
// reports whether it was the closing one.
func (s *scanner) next(closing byte) (done bool, err error) {
	switch s.peek() {
	case ',':
		s.off++
		return false, nil
	case int(closing):
		s.off++
		s.depth--
		return true, nil
	}
	return false, s.fail("after element")
}

// key consumes an object key and its colon, returning the key as str does.
func (s *scanner) key() (quoted []byte, escaped bool, err error) {
	if s.peek() != '"' {
		return nil, false, s.fail("looking for object key")
	}
	if quoted, escaped, err = s.str(); err != nil {
		return nil, false, err
	}
	if s.peek() != ':' {
		return nil, false, s.fail("after object key")
	}
	s.off++
	return quoted, escaped, nil
}

// str consumes the string at off and returns it, quotes included, and
// whether it holds an escape.
func (s *scanner) str() (quoted []byte, escaped bool, err error) {
	d, i := s.data, s.off+1
	for i < len(d) {
		switch c := d[i]; {
		case c == '"':
			quoted, s.off = d[s.off:i+1], i+1
			return quoted, escaped, nil
		case c == '\\':
			escaped = true
			n := 2 // a backslash and one of "\/bfnrt, or u and four hex digits
			if i+1 < len(d) && d[i+1] == 'u' {
				n = 6
			}
			if i+n > len(d) || !validEscape(d[i+1:i+n]) {
				s.off = min(i+1, len(d))
				return nil, false, s.fail("in string escape code")
			}
			i += n
		case c < 0x20:
			s.off = i
			return nil, false, s.fail("in string literal")
		default:
			i++
		}
	}
	s.off = i
	return nil, false, s.fail("")
}

// validEscape reports whether e, the bytes after a backslash, is one of
// JSON's escapes.
func validEscape(e []byte) bool {
	if e[0] != 'u' {
		return strings.IndexByte(`"\/bfnrt`, e[0]) >= 0
	}
	for _, c := range e[1:] {
		if lower := c | 0x20; !isDigit(c) && (lower < 'a' || lower > 'f') {
			return false
		}
	}
	return true
}

// matchKey reports whether the quoted key (validated by str) names the
// field want, as encoding/json matches keys to fields: exactly, or equal
// under Unicode case folding once unescaped.
func matchKey(quoted []byte, escaped bool, want string) bool {
	name := quoted[1 : len(quoted)-1]
	if escaped {
		// Rare, so encoding/json unescapes it, surrogates and all.
		var u string
		if json.Unmarshal(quoted, &u) != nil {
			return false
		}
		name = []byte(u)
	}
	return bytes.EqualFold(name, []byte(want))
}

// number consumes the JSON number at off, checking its grammar and
// accumulating its digits in the same pass, and returns its text and value:
// strconv.ParseFloat's bits, and ±Inf where ParseFloat reports overflow.
func (s *scanner) number() (lit []byte, x float64, err error) {
	d, i := s.data, s.off
	var a decimal
	if i < len(d) && d[i] == '-' {
		a.neg = true
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = a.digits(d, i)
	default:
		s.off = i
		return nil, 0, s.fail("in numeric literal")
	}
	a.dp = a.nd
	if i < len(d) && d[i] == '.' {
		if i+1 >= len(d) || !isDigit(d[i+1]) {
			s.off = i + 1
			return nil, 0, s.fail("after decimal point in numeric literal")
		}
		i = a.digits(d, i+1)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		sign := 1
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			if d[i] == '-' {
				sign = -1
			}
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			s.off = i
			return nil, 0, s.fail("in exponent of numeric literal")
		}
		e := 0
		for ; i < len(d) && isDigit(d[i]); i++ {
			if e < 10000 { // readFloat's cap, so the fast paths see its exponent
				e = e*10 + int(d[i]-'0')
			}
		}
		a.dp += sign * e
	}
	lit = d[s.off:i]
	s.off = i
	return lit, a.float(lit), nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// startsNumber reports whether c, as peek returns it, can start a number.
func startsNumber(c int) bool { return c == '-' || ('0' <= c && c <= '9') }

// literal consumes true, false or null at off.
func (s *scanner) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if s.off >= len(s.data) || s.data[s.off] != word[i] {
			return s.fail("in literal " + word)
		}
		s.off++
	}
	return nil
}

// skip consumes one value of any kind, validating it. Its recursion is
// bounded by maxDepth, past which it fails as encoding/json does.
func (s *scanner) skip() error {
	switch c := s.peek(); {
	case c == '[' || c == '{':
		closing := byte(c) + 2 // ']' or '}'
		if empty, err := s.open(closing); err != nil || empty {
			return err
		}
		for {
			if closing == '}' {
				if _, _, err := s.key(); err != nil {
					return err
				}
			}
			if err := s.skip(); err != nil {
				return err
			}
			if done, err := s.next(closing); err != nil || done {
				return err
			}
		}
	case c == '"':
		_, _, err := s.str()
		return err
	case startsNumber(c):
		_, _, err := s.number()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return s.fail("looking for beginning of value")
}

// floats collects decoded numbers in chunks that double up to maxChunk
// values, so growing it never copies what it already holds and leaves at
// most one chunk of slack. Every decode of the same body allocates the same
// bytes: there is no pool whose contents depend on when the collector ran.
type floats struct {
	full [][]float64 // filled chunks, in order
	cur  []float64
	n    int // values in full
}

const (
	minChunk = 256
	maxChunk = 1 << 14 // 128 KiB of float64s
)

func (f *floats) add(x float64) {
	if len(f.cur) == cap(f.cur) {
		f.grow()
	}
	f.cur = append(f.cur, x)
}

func (f *floats) grow() {
	if cap(f.cur) > 0 {
		f.full = append(f.full, f.cur)
		f.n += len(f.cur)
	}
	f.cur = make([]float64, 0, min(max(f.n, minChunk), maxChunk))
}

func (f *floats) len() int { return f.n + len(f.cur) }

// join appends g's values to f's, taking over g's chunks.
func (f *floats) join(g *floats) {
	if len(f.cur) > 0 {
		f.full = append(f.full, f.cur)
		f.n += len(f.cur)
	}
	f.full = append(f.full, g.full...)
	f.n += g.n
	f.cur = g.cur
}

// flat returns the values in one exact-size slice.
func (f *floats) flat() []float64 {
	out := make([]float64, 0, f.len())
	for _, c := range f.full {
		out = append(out, c...)
	}
	return append(out, f.cur...)
}

// setDecoder collects one set's fields while its object is scanned.
type setDecoder struct {
	coords, weights floats
	dim             int
	rows            int  // rows in the last "points"; 0 when null or absent
	rowLen          int  // length of row 0
	bad, badLen     int  // first row whose length differs from row 0's, or -1
	hasWeights      bool // the last "weights" was an array
	typeErr         error
}

// typeError records the first value of the wrong type; it is reported once
// the whole set has been scanned.
func (d *setDecoder) typeError(format string, args ...any) {
	if d.typeErr == nil {
		d.typeErr = fmt.Errorf("%w: "+format, append([]any{ErrDecode}, args...)...)
	}
}

// rowError is the type error of a "points" element that is neither an
// array nor null. A piece of a split scan numbers its rows from 0; join
// renumbers them.
type rowError struct{ row int }

func (e *rowError) Error() string {
	return fmt.Sprintf("%v: point %d is not an array", ErrDecode, e.row)
}

func (e *rowError) Unwrap() error { return ErrDecode }

// join appends the rows a piece of a split scan decoded into p to the rows
// in d, as if one scan had read both: the first type error and the first
// row whose length differs from row 0's are d's when it has one, else p's,
// renumbered after d's rows.
func (d *setDecoder) join(p *setDecoder) {
	if e, ok := p.typeErr.(*rowError); ok {
		e.row += d.rows
	}
	if d.typeErr == nil {
		d.typeErr = p.typeErr
	}
	if d.bad < 0 {
		if p.rowLen != d.rowLen {
			d.bad, d.badLen = d.rows, p.rowLen
		} else if p.bad >= 0 {
			d.bad, d.badLen = d.rows+p.bad, p.badLen
		}
	}
	d.rows += p.rows
	d.coords.join(&p.coords)
}

// set decodes the value at off as a Set. A malformed value is a syntax
// error; an invalid set wraps ErrDecode.
func (s *scanner) set() (*Set, error) {
	if s.peek() != '{' {
		if err := s.skip(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: not an object", ErrDecode)
	}
	d := setDecoder{bad: -1}
	empty, err := s.open('}')
	if err != nil {
		return nil, err
	}
	if !empty {
		for {
			name, escaped, err := s.key()
			if err != nil {
				return nil, err
			}
			switch {
			case matchKey(name, escaped, "dim"):
				err = s.dimValue(&d)
			case matchKey(name, escaped, "points"):
				err = s.pointsValue(&d)
			case matchKey(name, escaped, "weights"):
				err = s.weightsValue(&d)
			default:
				err = s.skip()
			}
			if err != nil {
				return nil, err
			}
			if done, err := s.next('}'); err != nil {
				return nil, err
			} else if done {
				break
			}
		}
	}
	return d.finish()
}

func (s *scanner) dimValue(d *setDecoder) error {
	switch c := s.peek(); {
	case c == 'n': // null leaves dim as it was
		return s.literal("null")
	case startsNumber(c):
		lit, _, err := s.number()
		if err != nil {
			return err
		}
		n, perr := strconv.Atoi(string(lit))
		if perr != nil {
			d.typeError("dim %s is not an int", lit)
			return nil
		}
		d.dim = n
		return nil
	}
	d.typeError("dim is not a number")
	return s.skip()
}

func (s *scanner) pointsValue(d *setDecoder) error {
	d.coords, d.rows, d.bad = floats{}, 0, -1
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case '[':
	default:
		d.typeError("points is not an array")
		return s.skip()
	}
	if empty, err := s.open(']'); err != nil || empty {
		return err
	}
	if done, err := s.splitRows(d); err != nil || done {
		return err
	}
	_, err := s.rows(d, math.MaxInt)
	return err
}

// rows scans the elements of a "points" array from off, the start of one,
// into d until the array closes (done) or, between two elements, off
// reaches stop.
func (s *scanner) rows(d *setDecoder, stop int) (done bool, err error) {
	for {
		n := d.coords.len()
		switch s.peek() {
		case '[':
			err = s.numbers(d, &d.coords, "coordinate")
		case 'n': // a null row is an empty one
			err = s.literal("null")
		default:
			if d.typeErr == nil {
				d.typeErr = &rowError{d.rows}
			}
			err = s.skip()
		}
		if err != nil {
			return false, err
		}
		if l := d.coords.len() - n; d.rows == 0 {
			d.rowLen = l
		} else if l != d.rowLen && d.bad < 0 {
			d.bad, d.badLen = d.rows, l
		}
		d.rows++
		if done, err = s.next(']'); err != nil || done || s.off >= stop {
			return done, err
		}
	}
}

// minPiece is the fewest bytes a piece of a split "points" scan is cut
// from. A piece of 256 KiB takes about a millisecond to scan, so starting
// its goroutine and joining it cost well under 1%; a serve-mix body (about
// 45 KB) stays one piece (DESIGN §10). A variable only so that tests can
// force splits on small inputs.
var minPiece = 256 << 10

// rowSep is the text between two rows of a compact "points" array; a piece
// starts at its '['.
var rowSep = []byte("],[")

// splitRows scans the rows from off in pieces, one goroutine each, when at
// least two pieces of minPiece bytes remain in the input, and joins the
// pieces into d in order. It cuts what remains into min(GOMAXPROCS,
// remaining/minPiece) equal byte ranges and moves each cut forward to the
// '[' of the next rowSep. Each piece runs rows on its own decoder up to the
// next piece's first byte. A piece counts only when the piece before it
// stopped exactly at that byte: the cut then lies between two rows of this
// array, and the piece scanned what one scan would have scanned from there.
// From the first piece that does not count, the caller continues one scan
// from off, so a cut inside a string or a nested row, rows with white space
// between them, or an array that ends before the cut leave the result as
// one scan gives it. Every piece's goroutine has returned when splitRows
// does.
func (s *scanner) splitRows(d *setDecoder) (done bool, err error) {
	rest := len(s.data) - s.off
	n := min(runtime.GOMAXPROCS(0), rest/minPiece)
	if n < 2 {
		return false, nil
	}
	var starts []int
	for k, at := 1, s.off; k < n; k++ {
		at = max(at, s.off+k*rest/n)
		i := bytes.Index(s.data[at:], rowSep)
		if i < 0 {
			break
		}
		at += i + len(rowSep) - 1
		starts = append(starts, at)
	}
	if len(starts) == 0 {
		return false, nil
	}
	type piece struct {
		sc   scanner
		d    setDecoder
		done bool
		err  error
	}
	pieces := make([]piece, len(starts))
	var wg sync.WaitGroup
	for i, at := range starts {
		stop := math.MaxInt
		if i+1 < len(starts) {
			stop = starts[i+1]
		}
		p := &pieces[i]
		p.sc, p.d = scanner{data: s.data, off: at, depth: s.depth}, setDecoder{bad: -1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.done, p.err = p.sc.rows(&p.d, stop)
		}()
	}
	done, err = s.rows(d, starts[0])
	wg.Wait()
	for i := range pieces {
		if err != nil || done || s.off != starts[i] {
			break
		}
		p := &pieces[i]
		d.join(&p.d)
		s.off, s.depth = p.sc.off, p.sc.depth
		done, err = p.done, p.err
	}
	return done, err
}

func (s *scanner) weightsValue(d *setDecoder) error {
	d.weights, d.hasWeights = floats{}, false
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case '[':
		d.hasWeights = true
		return s.numbers(d, &d.weights, "weight")
	}
	d.typeError("weights is not an array")
	return s.skip()
}

// numbers adds the array of numbers at off to dst. Every element adds
// exactly one value, so a row's length is the elements it holds.
func (s *scanner) numbers(d *setDecoder, dst *floats, what string) error {
	if empty, err := s.open(']'); err != nil || empty {
		return err
	}
	for {
		x := 0.0
		switch c := s.peek(); {
		case startsNumber(c):
			var lit []byte
			var err error
			if lit, x, err = s.number(); err != nil {
				return err
			}
			// A number in the grammar is finite unless it overflows,
			// which encoding/json reports as a type error. A kept value
			// is therefore finite.
			if math.IsInf(x, 0) {
				d.typeError("%s %s at offset %d overflows float64", what, lit, s.off-len(lit))
			}
		case c == 'n':
			if err := s.literal("null"); err != nil {
				return err
			}
			d.typeError("null %s at offset %d", what, s.off-len("null"))
		default:
			d.typeError("%s at offset %d is not a number", what, s.off)
			if err := s.skip(); err != nil {
				return err
			}
		}
		dst.add(x)
		if done, err := s.next(']'); err != nil || done {
			return err
		}
	}
}

// finish validates the scanned fields and builds the set. The order of the
// checks fixes which error a set with several faults reports.
func (d *setDecoder) finish() (*Set, error) {
	if d.typeErr != nil {
		return nil, d.typeErr
	}
	if d.rows == 0 {
		return nil, fmt.Errorf("%w: no points", ErrDecode)
	}
	dim := d.dim
	if dim == 0 {
		dim = d.rowLen
	}
	if dim < 1 {
		return nil, fmt.Errorf("%w: dim = %d, want >= 1", ErrDecode, dim)
	}
	if d.rowLen != dim {
		return nil, fmt.Errorf("%w: point 0 has dim %d, want %d", ErrDim, d.rowLen, dim)
	}
	if d.bad >= 0 {
		return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDim, d.bad, d.badLen, dim)
	}
	var ws []float64
	if d.hasWeights {
		ws = d.weights.flat()
	} else {
		ws = make([]float64, d.rows)
		for i := range ws {
			ws[i] = 1
		}
	}
	if len(ws) != d.rows {
		return nil, fmt.Errorf("%w: %d points but %d weights", ErrDecode, d.rows, len(ws))
	}
	for i, w := range ws {
		if w < 0 {
			return nil, fmt.Errorf("%w: weight %d = %v, want finite and >= 0", ErrDecode, i, w)
		}
	}
	if t := total(ws); math.IsInf(t, 0) {
		return nil, fmt.Errorf("%w: weights sum to %v, want a finite total", ErrDecode, t)
	}
	return build(d.coords.flat(), dim, ws), nil
}
