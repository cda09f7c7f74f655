// Package jsonwire reads JSON request bodies in one pass over their
// bytes, decoding straight into the caller's values.
//
// It exists so the wire shapes of edfd and edfproxy decode without
// encoding/json's repeated scans, while accepting and rejecting exactly
// what encoding/json does and producing the same values: the same
// grammar and nesting limit, the same string unescaping (invalid UTF-8
// and unpaired surrogates become U+FFFD), struct keys matched exactly
// first and then under Unicode case folding, the last of duplicate keys
// winning, null leaving scalars and structs untouched, and int fields
// rejecting fractions, exponents and overflow.
//
// A Decoder keeps the first error it meets; after it every read is a
// no-op, so decoders check Err (or End) once at the end.
package jsonwire

import (
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// SyntaxError reports malformed JSON.
type SyntaxError struct {
	Msg    string
	Offset int // byte offset of the offending input
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("invalid JSON at offset %d: %s", e.Offset, e.Msg)
}

// TypeError reports a well-formed value that does not fit its target:
// the wrong JSON type, or a number that is not an in-range integer.
type TypeError struct {
	Field  string // the target, e.g. "wcet" or "task"
	Offset int    // byte offset just past the value
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("cannot decode value before offset %d into %s", e.Offset, e.Field)
}

// Decoder reads one JSON value from a byte slice.
type Decoder struct {
	data  []byte
	pos   int
	depth int
	err   error
	buf   []byte // unescaped text of the last escaped string
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) Decoder { return Decoder{data: data} }

// Decode reads data, which must hold exactly one JSON value, into *v
// with decode, and returns the first error decode or the trailing-bytes
// check recorded.
func Decode[T any](data []byte, v *T, decode func(*Decoder, *T)) error {
	d := NewDecoder(data)
	decode(&d, v)
	return d.End()
}

// Err returns the first error met so far.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless an earlier error is already recorded, and
// stops the decoder.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.pos = len(d.data)
}

func (d *Decoder) syntax(msg string) {
	if d.err == nil {
		if d.pos >= len(d.data) {
			msg = "unexpected end of input"
		}
		d.Fail(&SyntaxError{Msg: msg, Offset: d.pos})
	}
}

// Check records a type error for field when ok is false; it is meant
// to wrap the value readers: d.Check(d.Int64(&v), "wcet").
func (d *Decoder) Check(ok bool, field string) {
	if !ok && d.err == nil {
		d.Fail(&TypeError{Field: field, Offset: d.pos})
	}
}

// End checks that only whitespace follows the value and returns the
// first error.
func (d *Decoder) End() error {
	d.Peek()
	if d.err == nil && d.pos < len(d.data) {
		d.syntax(fmt.Sprintf("invalid character %q after top-level value", d.data[d.pos]))
	}
	return d.err
}

// Peek skips whitespace and returns the next byte without consuming
// it; 0 at the end of the input or after an error.
func (d *Decoder) Peek() byte {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return d.data[d.pos]
	}
	return d.peekSlow()
}

func (d *Decoder) peekSlow() byte {
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// Null consumes a null if one comes next and reports whether it did.
func (d *Decoder) Null() bool {
	if d.Peek() != 'n' {
		return false
	}
	d.literal("null")
	return d.err == nil
}

func (d *Decoder) literal(lit string) {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		d.syntax("invalid literal")
		return
	}
	d.pos += len(lit)
}

// Enter consumes the '{' or '[' that Peek returned.
func (d *Decoder) Enter() {
	d.pos++
	if d.depth++; d.depth > maxDepth {
		d.pos--
		d.syntax("exceeded max depth")
	}
}

// More advances past the separator before member i of the object or
// array entered last (none before member 0) and reports whether that
// member follows; on the closing byte it consumes it and returns false.
// Loop as: for i := 0; d.More(i, '}'); i++ { ... }.
func (d *Decoder) More(i int, close byte) bool {
	// After an error pos sits at the end, so the fast path never runs.
	if d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == close:
			d.pos++
			d.depth--
			return false
		case c == ',' && i > 0:
			d.pos++
			return true
		case c > ' ' && i == 0:
			return true
		}
	}
	return d.moreSlow(i, close)
}

func (d *Decoder) moreSlow(i int, close byte) bool {
	c := d.Peek()
	if c == close && d.err == nil {
		d.pos++
		d.depth--
		return false
	}
	if i > 0 {
		if c != ',' {
			d.syntax(fmt.Sprintf("expected ',' or %q", close))
			return false
		}
		d.pos++
	}
	return d.err == nil
}

// Object enters the object that comes next and reports whether it did.
// A null is consumed and reports false; any other value is skipped and
// recorded as a type error for field.
func (d *Decoder) Object(field string) bool {
	switch d.Peek() {
	case '{':
		d.Enter()
		return d.err == nil
	case 'n':
		d.Null()
	default:
		d.Check(d.mismatch(), field)
	}
	return false
}

// Key reads an object member's name and the colon after it. The result
// is valid until the next read.
func (d *Decoder) Key() []byte {
	// Fast path: a plain key directly followed by its colon.
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '"' {
		j := i + 1
		for j < len(data) && plain[data[j]] {
			j++
		}
		if j+1 < len(data) && data[j] == '"' && data[j+1] == ':' {
			d.pos = j + 2
			return data[i+1 : j]
		}
	}
	if d.Peek() != '"' {
		d.syntax("expected string for object key")
		return nil
	}
	k := d.quoted()
	if d.Peek() != ':' {
		d.syntax("expected ':' after object key")
		return nil
	}
	d.pos++
	return k
}

// Field returns the index in names of the field key selects under
// encoding/json's rules: an exact match, else the first match under
// Unicode simple case folding; -1 when there is none. names must be
// ASCII.
func Field(key []byte, names []string) int {
	for i, n := range names {
		if len(key) == len(n) && len(n) > 0 && key[0] == n[0] && string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if foldEqual(key, n) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key equals the ASCII name under Unicode
// simple folding, the equivalence encoding/json matches keys by: same
// rune count, each key rune in the fold orbit of the name's byte (so
// the Kelvin sign matches 'k' and the long s matches 's').
func foldEqual(key []byte, name string) bool {
	for i := 0; i < len(name); i++ {
		if len(key) == 0 {
			return false
		}
		c := rune(name[i])
		r, n := rune(key[0]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key)
		}
		key = key[n:]
		if r == c || r < utf8.RuneSelf && r|0x20 == c|0x20 && 'a' <= c|0x20 && c|0x20 <= 'z' {
			continue
		}
		if r < utf8.RuneSelf {
			return false
		}
		match := false
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f == c {
				match = true
				break
			}
		}
		if !match {
			return false
		}
	}
	return len(key) == 0
}

// Skip consumes one value of any type, checking its syntax.
func (d *Decoder) Skip() {
	switch c := d.Peek(); c {
	case '{':
		d.Enter()
		for i := 0; d.More(i, '}'); i++ {
			d.Key()
			d.Skip()
		}
	case '[':
		d.Enter()
		for i := 0; d.More(i, ']'); i++ {
			d.Skip()
		}
	case '"':
		d.quoted()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		if c == '-' || '0' <= c && c <= '9' {
			d.number()
			return
		}
		d.syntax(fmt.Sprintf("invalid character %q looking for beginning of value", c))
	}
}

// mismatch skips a value whose type does not fit the target and reports
// false, so readers can return it.
func (d *Decoder) mismatch() bool {
	d.Skip()
	return false
}

// String reads a string into *v. A null leaves *v untouched; any other
// value is skipped and reported as false.
func (d *Decoder) String(v *string) bool {
	switch d.Peek() {
	case '"':
		if s := d.quoted(); d.err == nil {
			*v = string(s)
		}
		return true
	case 'n':
		d.Null()
		return true
	}
	return d.mismatch()
}

// Int64 reads an integer into *v. A null leaves *v untouched; a number
// with a fraction or exponent, one outside the int64 range, or a value
// of another type is skipped and reported as false.
func (d *Decoder) Int64(v *int64) bool {
	switch c := d.Peek(); {
	case c == '-' || '0' <= c && c <= '9':
		lit, integer, small := d.number()
		if d.err != nil {
			return true
		}
		if !integer {
			return false
		}
		if small >= 0 {
			*v = small
			return true
		}
		n, ok := parseInt(lit)
		if ok {
			*v = n
		}
		return ok
	case c == 'n':
		d.Null()
		return true
	}
	return d.mismatch()
}

// Int reads an integer into *v, as Int64 does for the platform's int.
func (d *Decoder) Int(v *int) bool {
	n := int64(*v)
	if !d.Int64(&n) || int64(int(n)) != n {
		return false
	}
	*v = int(n)
	return true
}

// Slice decodes an array into *s the way encoding/json decodes into an
// existing slice: elements decode in place into the current backing
// array (so a repeated key overwrites element by element) and the slice
// is cut to the array's length; an empty array yields an empty non-nil
// slice and null yields nil. elem reads one element, reporting false on
// a type mismatch. Slice reports false when the value is neither array
// nor null or any element mismatched.
func Slice[S ~[]T, T any](d *Decoder, s *S, elem func(*Decoder, *T) bool) bool {
	switch d.Peek() {
	case '[':
	case 'n':
		if d.Null() {
			*s = nil
		}
		return true
	default:
		return d.mismatch()
	}
	d.Enter()
	v := (*s)[:cap(*s)]
	ok := true
	n := 0
	for ; d.More(n, ']'); n++ {
		if n == len(v) {
			var zero T
			v = append(v, zero)
			v = v[:cap(v)]
		}
		if !elem(d, &v[n]) {
			ok = false
		}
	}
	if d.err != nil {
		return true
	}
	if n == 0 {
		*s = make(S, 0)
	} else {
		*s = v[:n]
	}
	return ok
}

// number consumes a JSON number and reports whether it is an integer
// literal (no fraction, no exponent). small is the literal's value when
// it is an integer of at most 18 digits, which cannot overflow; -1
// otherwise (parseInt then decides).
func (d *Decoder) number() (lit []byte, integer bool, small int64) {
	data, start := d.data, d.pos
	i := start
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	first := i
	var n int64
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			n = n*10 + int64(c)
		}
	default:
		d.pos = i
		d.syntax("invalid number")
		return nil, false, -1
	}
	small = -1
	if i-first <= 18 {
		small = n
		if neg {
			small = -n
		}
	}
	integer = true
	if i < len(data) && data[i] == '.' {
		integer = false
		if i++; i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.pos = i
			d.syntax("invalid number: digit expected after decimal point")
			return nil, false, -1
		}
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integer = false
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.pos = i
			d.syntax("invalid number: digit expected in exponent")
			return nil, false, -1
		}
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		}
	}
	d.pos = i
	return data[start:i], integer, small
}

// parseInt converts a JSON integer literal, reporting false outside the
// int64 range — strconv.ParseInt(lit, 10, 64) for this grammar.
func parseInt(lit []byte) (int64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	const limit = uint64(1) << 63
	var n uint64
	for _, c := range lit {
		if n > limit/10 {
			return 0, false
		}
		if n = n*10 + uint64(c-'0'); n > limit {
			return 0, false
		}
	}
	if neg {
		return int64(-n), true
	}
	if n == limit {
		return 0, false
	}
	return int64(n), true
}

// quoted consumes a string and returns its unescaped contents: a slice
// of the input when the string holds no escape and only valid UTF-8,
// otherwise the decoder's scratch buffer, valid until the next read.
func (d *Decoder) quoted() []byte {
	data := d.data
	start := d.pos + 1
	i := start
	for i < len(data) && plain[data[i]] {
		i++
	}
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return data[start:i]
		case c == '\\' || c < 0x20:
			return d.unescape(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && n == 1 {
				return d.unescape(start, i)
			}
			i += n
		}
	}
	d.pos = len(data)
	d.syntax("unterminated string")
	return nil
}

// plain marks the bytes a string holds verbatim: ASCII other than the
// quote, the backslash and control characters.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape finishes a string from offset i on, with data[start:i]
// already known to be plain, decoding escapes and coercing invalid
// UTF-8 exactly as encoding/json's unquote does.
func (d *Decoder) unescape(start, i int) []byte {
	b := append(d.buf[:0], d.data[start:i]...)
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.buf = b
			d.pos = i + 1
			return b
		case c < 0x20:
			d.pos = i
			d.syntax("control character in string literal")
			return nil
		case c == '\\':
			if i+1 >= len(d.data) {
				d.pos = len(d.data)
				d.syntax("")
				return nil
			}
			switch e := d.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[i+2:])
				if r < 0 {
					d.pos = i
					d.syntax("invalid \\u escape in string literal")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if len(d.data)-i >= 6 && d.data[i] == '\\' && d.data[i+1] == 'u' {
						r2 = hex4(d.data[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						i += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i
				d.syntax("invalid escape in string literal")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	d.buf = b
	d.pos = len(d.data)
	d.syntax("unterminated string")
	return nil
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
