// Package jsonbytes writes and reads the exact bytes encoding/json
// writes for a number or a string, without reflection. Codecs built on
// it (sim.Result's, trace.Spec's hash input, the run store's envelope)
// produce what json.Marshal would, byte for byte, and accept only those
// bytes back, so one spelling of a value is its only spelling.
package jsonbytes

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends v as encoding/json writes a finite float64: the
// shortest 'f' form, or 'e' below 1e-6 or at or above 1e21, with a
// one-digit negative exponent unpadded. v must be finite; encoding/json
// refuses NaN and ±Inf, and so must every caller.
func AppendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// AppendString appends s as a quoted JSON string, escaped as
// encoding/json escapes it: '"', '\\' and the control characters,
// the HTML-sensitive '<', '>' and '&', U+2028 and U+2029, and each byte
// of invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// CutLiteral returns d after its prefix lit.
func CutLiteral(d []byte, lit string) ([]byte, bool) {
	if len(d) < len(lit) || string(d[:len(lit)]) != lit {
		return nil, false
	}
	return d[len(lit):], true
}

// CutUint returns the decimal uint64 that d starts with, written as
// strconv.AppendUint writes it, and the rest of d.
func CutUint(d []byte) (uint64, []byte, bool) {
	n := 0
	for n < len(d) && '0' <= d[n] && d[n] <= '9' {
		n++
	}
	if n == 0 || n > 1 && d[0] == '0' {
		return 0, nil, false
	}
	v, err := strconv.ParseUint(string(d[:n]), 10, 64)
	return v, d[n:], err == nil
}

// maxFloatLen bounds AppendFloat's output ("-2.2250738585072014e-308"
// is 24 bytes).
const maxFloatLen = 32

// CutFloat returns the float64 that d starts with, written as
// AppendFloat writes it, and the rest of d. The number runs to the next
// ',', ']' or '}'; it is canonical if AppendFloat writes it back byte
// for byte.
func CutFloat(d []byte) (float64, []byte, bool) {
	n := 0
	for n < len(d) && n <= maxFloatLen && d[n] != ',' && d[n] != ']' && d[n] != '}' {
		n++
	}
	if n == 0 || n > maxFloatLen {
		return 0, nil, false
	}
	v, err := strconv.ParseFloat(string(d[:n]), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, nil, false
	}
	var buf [maxFloatLen]byte
	if string(AppendFloat(buf[:0], v)) != string(d[:n]) {
		return 0, nil, false
	}
	return v, d[n:], true
}
