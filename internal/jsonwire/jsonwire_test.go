package jsonwire

import (
	"bytes"
	"encoding/json"
	"testing"
	"unicode/utf8"
)

// FuzzString is the package's one contract, on any bytes: AppendString
// writes exactly what json.Marshal writes for them as a string, whether
// they arrive as a string or as bytes; whatever the Scanner reads as a
// JSON string, json.Unmarshal reads to the same string; and valid UTF-8
// round-trips through the two.
func FuzzString(f *testing.F) {
	for _, s := range []string{
		"",
		"Question: Are bats blind?\nAnswer:",
		"quotes \"and\" back\\slashes, tabs\tand\r\nnewlines, \x00\x01\b\f\x1f\x7f controls",
		"<script>&amp;</script>",
		"line\u2028and paragraph\u2029separators, Brasília, 北京, 🦊",
		"invalid \xc3 UTF-8 \xff bytes \xe2\x82, a lone surrogate \xed\xa0\x80",
		`"escapes \u00e9 \ud83e\udd8a \/ \b"`,
		`"<b> \u2028 \u003c"`,
		`"unterminated`,
		` "padded" `,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, err := json.Marshal(string(data))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, string(data)); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal %s", data, got, want)
		}
		if got := AppendString([]byte("x"), data); !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendString([]byte %q) = %s, json.Marshal %s", data, got[1:], want)
		}

		s := Scanner{B: data}
		if got, ok := s.Str(nil); ok && s.End() {
			var ref string
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatalf("Scanner read %q, encoding/json rejects it (%v): %q", got, err, data)
			}
			if string(got) != ref {
				t.Fatalf("Scanner read %q, encoding/json %q: %q", got, ref, data)
			}
		}

		if utf8.Valid(data) {
			s := Scanner{B: want}
			if got, ok := s.Str(nil); !ok || !s.End() || !bytes.Equal(got, data) {
				t.Fatalf("%q written as %s reads back as %q (ok=%v)", data, want, got, ok)
			}
		}
	})
}
