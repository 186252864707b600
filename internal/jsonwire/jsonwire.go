// Package jsonwire is the hand-written JSON of the streams this system
// writes by appending into pooled buffers — the modeld hop's NDJSON (token
// lines, the done line, the /api/generate request body) and /api/query's
// SSE frames — and the declining scanner the hop reads it back with.
//
// One rule holds for every byte: what is appended here is what
// encoding/json writes for the same value, and what the Scanner accepts it
// reads exactly as encoding/json would, declining the rest. encoding/json
// stays the reference and the callers' only fallback (FuzzString here;
// FuzzStreamLine, FuzzGenerateRequest and FuzzEventFrame for the formats
// built on it). The formats themselves — which members, in which order —
// stay with the code that owns them.
package jsonwire

import (
	"math"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// safe marks the ASCII bytes encoding/json copies into a string
// unescaped with HTML escaping on, as json.Marshal has it.
var safe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string exactly as json.Marshal writes
// the string s: control bytes, quotes, backslash and <, >, & escaped,
// U+2028 and U+2029 escaped, invalid UTF-8 replaced by \ufffd.
func AppendString[T string | []byte](dst []byte, s T) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		// At most UTFMax bytes: converting them to a string does not allocate.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendInts appends vs as a JSON array of integers.
func AppendInts(dst []byte, vs []int) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// AppendInt appends an omitempty integer member: key (the member's name
// with its separators, e.g. `,"round":`) and v, or nothing when v is 0.
func AppendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// AppendText appends an omitempty string member, nothing when v is empty.
func AppendText[T string | []byte](dst []byte, key string, v T) []byte {
	if len(v) == 0 {
		return dst
	}
	return AppendString(append(dst, key...), v)
}

// Finite reports whether encoding/json can write f: not NaN, not ±Inf.
func Finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// AppendFloat appends an omitempty finite float member in encoding/json's
// format: ES6 number-to-string, so %e only below 1e-6 and from 1e21, with
// a one-digit exponent unpadded. Negative zero is zero and omitted.
func AppendFloat(dst []byte, key string, f float64) []byte {
	if f == 0 {
		return dst
	}
	return AppendNumber(append(dst, key...), f)
}

// AppendNumber appends a finite f as encoding/json writes a float64 —
// zero included, negative zero as -0.
func AppendNumber(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendTime appends t as time.Time.MarshalJSON does: quoted RFC 3339
// with nanoseconds. It reports false where MarshalJSON refuses — a year
// outside [0,9999], a zone offset of 24 hours or more.
func AppendTime(dst []byte, t time.Time) ([]byte, bool) {
	dst = append(dst, '"')
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	ok := dst[n0+len("9999")] == '-' // a year of exactly four digits
	if ok && dst[len(dst)-1] != 'Z' {
		zone := dst[len(dst)-len("+07:00"):]
		ok = (zone[0] < '0' || zone[0] > '9') && 10*(zone[1]-'0')+(zone[2]-'0') < 24
	}
	return append(dst, '"'), ok
}

// Scanner reads the JSON subset the daemon and the client write to each
// other. Every method reports false on input it does not read, never an
// error: the caller's fallback decides whether the input is actually
// malformed.
type Scanner struct {
	B []byte // the input
	I int    // offset of the next byte to read
	// Key holds the member key Object is at; its storage is the caller's,
	// handed in and taken back so it keeps its capacity.
	Key []byte
}

// Object reads the JSON object that is next, calling member for each of
// its members with the scanner at the value and key the member's name —
// valid only until member reads another object.
func (s *Scanner) Object(member func(key []byte) bool) bool {
	if !s.lit('{') {
		return false
	}
	for first := true; !s.lit('}'); first = false {
		if !first && !s.lit(',') {
			return false
		}
		var ok bool
		if s.Key, ok = s.Str(s.Key[:0]); !ok || !s.lit(':') || !member(s.Key) {
			return false
		}
	}
	return true
}

// Array reads the JSON array that is next, calling element with the
// scanner at each of its values.
func (s *Scanner) Array(element func() bool) bool {
	if !s.lit('[') {
		return false
	}
	for first := true; !s.lit(']'); first = false {
		if !first && !s.lit(',') || !element() {
			return false
		}
	}
	return true
}

// End reports whether nothing but white space is left.
func (s *Scanner) End() bool {
	s.SkipSpace()
	return s.I == len(s.B)
}

// Bool reads the next JSON boolean.
func (s *Scanner) Bool() (v, ok bool) {
	if s.word("true") {
		return true, true
	}
	return false, s.word("false")
}

// Plain returns the bytes of the next JSON string in place when it is
// written without escapes.
func (s *Scanner) Plain() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	for start := s.I; s.I < len(s.B); s.I++ {
		switch c := s.B[s.I]; {
		case c == '"':
			s.I++
			return s.B[start : s.I-1], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// SkipSpace moves past white space.
func (s *Scanner) SkipSpace() {
	for s.I < len(s.B) {
		switch s.B[s.I] {
		case ' ', '\t', '\n', '\r':
			s.I++
		default:
			return
		}
	}
}

// lit skips white space and consumes c if it is next.
func (s *Scanner) lit(c byte) bool {
	s.SkipSpace()
	if s.I < len(s.B) && s.B[s.I] == c {
		s.I++
		return true
	}
	return false
}

func (s *Scanner) word(w string) bool {
	s.SkipSpace()
	if len(s.B)-s.I >= len(w) && string(s.B[s.I:s.I+len(w)]) == w {
		s.I += len(w)
		return true
	}
	return false
}

// Str appends the next JSON string, unescaped, to dst. It declines
// surrogate escapes and anything that is not valid UTF-8, where
// encoding/json would substitute U+FFFD.
func (s *Scanner) Str(dst []byte) ([]byte, bool) {
	if !s.lit('"') {
		return dst, false
	}
	from := len(dst)
	for s.I < len(s.B) {
		c := s.B[s.I]
		s.I++
		switch {
		case c == '"':
			return dst, utf8.Valid(dst[from:])
		case c < 0x20:
			return dst, false
		case c != '\\':
			dst = append(dst, c)
			continue
		}
		if s.I >= len(s.B) {
			return dst, false
		}
		c = s.B[s.I]
		s.I++
		switch c {
		case '"', '\\', '/':
			dst = append(dst, c)
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			if len(s.B)-s.I < 4 {
				return dst, false
			}
			var r rune
			for _, h := range s.B[s.I : s.I+4] {
				switch {
				case '0' <= h && h <= '9':
					r = r<<4 | rune(h-'0')
				case 'a' <= h && h <= 'f':
					r = r<<4 | rune(h-'a'+10)
				case 'A' <= h && h <= 'F':
					r = r<<4 | rune(h-'A'+10)
				default:
					return dst, false
				}
			}
			if utf16.IsSurrogate(r) {
				return dst, false
			}
			s.I += 4
			dst = utf8.AppendRune(dst, r)
		default:
			return dst, false
		}
	}
	return dst, false
}

// Ints appends the next JSON array of integers to dst.
func (s *Scanner) Ints(dst []int) ([]int, bool) {
	ok := s.Array(func() bool {
		v, ok := s.Int()
		dst = append(dst, v)
		return ok
	})
	return dst, ok
}

// Int reads the next JSON number when it is a plain integer of one to
// eighteen digits (no overflow) without a leading zero. A fraction or an
// exponent is left unread, where whatever must follow the value fails.
func (s *Scanner) Int() (int, bool) {
	s.SkipSpace()
	neg := s.I < len(s.B) && s.B[s.I] == '-'
	if neg {
		s.I++
	}
	start, v := s.I, 0
	for s.I < len(s.B) && '0' <= s.B[s.I] && s.B[s.I] <= '9' {
		v = v*10 + int(s.B[s.I]-'0')
		s.I++
	}
	if n := s.I - start; n == 0 || n > 18 || (n > 1 && s.B[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}
