package modeld

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"llmms/internal/llm"
)

// echoLine is the token line the daemon writes for a stream_tokens
// request carrying these tokens.
func echoLine(text string, ids, ends []int) []byte {
	lw := newLineWriter(nil, "llama3:8b", false, true)
	defer lw.release()
	return lw.appendTokenLine(nil, time.Unix(1700000000, 123), []byte(text), ids, ends)
}

// drainTokens pushes a decoded line into a fresh buffer and drains it one
// token at a time, or reports the push's rejection.
func drainTokens(tl *tokenLine) ([]llm.Chunk, error) {
	buf := llm.NewStreamBuffer(nil)
	if err := buf.Push(tl.text, tl.ids, tl.ends); err != nil {
		return nil, err
	}
	buf.Finish(llm.Chunk{Done: true, DoneReason: llm.DoneStop})
	var out []llm.Chunk
	for {
		c, err := buf.Drain(context.Background(), 1)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		if c.Done {
			return out, nil
		}
	}
}

// TestTokenLineEncoding pins what the daemon writes: the shape of
// one-token, batched and split-character lines, and that both the fast
// decoder and encoding/json read each back to the same bytes.
func TestTokenLineEncoding(t *testing.T) {
	brasilia := "Brasília"
	cut := strings.IndexByte(brasilia, 0xc3) + 1 // between the two bytes of í
	escapes := "a \"quoted\"\n\ttab \\ and \x01 control <html>"
	for _, tc := range []struct {
		name          string
		text          string
		ids, ends     []int
		wantEnds, raw bool
	}{
		{name: "one token", text: " bats", ids: []int{412}},
		{name: "batch", text: " bats are not blind", ids: []int{412, 9, 77, 1030}, ends: []int{5, 9, 13, 19}, wantEnds: true},
		{name: "escapes", text: escapes, ids: []int{1, 2}, ends: []int{3, len(escapes)}, wantEnds: true},
		{name: "whole character in one line", text: brasilia, ids: []int{5, 6, 7}, ends: []int{cut, cut + 1, len(brasilia)}, wantEnds: true},
		{name: "line cut mid-character", text: brasilia[:cut], ids: []int{5}, raw: true},
		{name: "line starts mid-character", text: brasilia[cut:], ids: []int{6, 7}, ends: []int{1, len(brasilia) - cut}, wantEnds: true, raw: true},
	} {
		line := echoLine(tc.text, tc.ids, tc.ends)
		if !bytes.HasSuffix(line, []byte("}\n")) || bytes.Count(line, []byte("\n")) != 1 {
			t.Fatalf("%s: not one NDJSON line: %q", tc.name, line)
		}
		if !utf8.Valid(line) {
			t.Fatalf("%s: line is not valid UTF-8: %q", tc.name, line)
		}
		if got := bytes.Contains(line, []byte(`"token_ends"`)); got != tc.wantEnds {
			t.Fatalf("%s: token_ends present = %v, want %v: %s", tc.name, got, tc.wantEnds, line)
		}
		if got := bytes.Contains(line, []byte(`"response_raw"`)); got != tc.raw {
			t.Fatalf("%s: response_raw present = %v, want %v: %s", tc.name, got, tc.raw, line)
		}
		var gr GenerateResponse
		if err := json.Unmarshal(line, &gr); err != nil {
			t.Fatalf("%s: encoding/json rejects the line: %v\n%s", tc.name, err, line)
		}
		if gr.Model != "llama3:8b" || gr.Done || gr.CreatedAt == "" {
			t.Fatalf("%s: envelope = %+v", tc.name, gr)
		}
		var fast, ref tokenLine
		if !fast.decode(line) {
			t.Fatalf("%s: fast decoder declined the daemon's own line: %s", tc.name, line)
		}
		ref.fromResponse(&gr)
		for _, tl := range []*tokenLine{&fast, &ref} {
			if string(tl.text) != tc.text || !reflect.DeepEqual(tl.ids, tc.ids) || (tc.wantEnds && !reflect.DeepEqual(tl.ends, tc.ends)) {
				t.Fatalf("%s: decoded %q %v %v, want %q %v %v", tc.name, tl.text, tl.ids, tl.ends, tc.text, tc.ids, tc.ends)
			}
		}
	}
}

// TestTokenLineDecoderDeclines lists lines the fast decoder must leave to
// encoding/json: the done line, foreign fields, and anything whose
// reading it could get wrong.
func TestTokenLineDecoderDeclines(t *testing.T) {
	for _, line := range []string{
		`{"model":"m","response":"","done":true,"done_reason":"stop","context":[1,2]}`,
		`{"model":"m","response":"x","done":false,"tokens":[1],"spans":[]}`,
		`{"model":"m","response":"x","response":"y","tokens":[1]}`,
		`{"model":"m","response":"\ud83e\udd8a","tokens":[1]}`,
		"{\"model\":\"m\",\"response\":\"\xc3\",\"tokens\":[1]}",
		`{"model":"m","response":"x","tokens":[1.0]}`,
		`{"model":"m","response":"x","tokens":[01]}`,
		`{"model":"m","response":"x","tokens":[1234567890123456789012]}`,
		`{"model":"m","response":"x","tokens":null}`,
		`{"model":"m","response":"x","tokens":[1],"response_raw":"!"}`,
		`{"model":"m","response":"x","tokens":[1],}`,
		`{"model":"m","response":"x","tokens":[1]} {}`,
		`["model"]`,
		``,
	} {
		var tl tokenLine
		if tl.decode([]byte(line)) {
			t.Errorf("fast decoder accepted %s", line)
		}
	}
}

// FuzzStreamLine feeds arbitrary bytes through the client's line decoder
// and the buffer's validator. Whatever the input: no panic; a line the
// fast decoder accepts is one encoding/json reads to the same tokens; a
// line that reaches the buffer drains to exactly its own ids and text;
// and an accepted line re-encoded by the daemon's writer decodes (on the
// fast path) to the same tokens again.
func FuzzStreamLine(f *testing.F) {
	f.Add(echoLine(" bats", []int{412}, nil))
	f.Add(echoLine(" bats are not blind", []int{412, 9, 77, 1030}, []int{5, 9, 13, 19}))
	f.Add(echoLine("Bras\xc3", []int{66, 114, 195}, []int{1, 4, 5}))
	f.Add(echoLine("\xadlia \"x\"\n", []int{173, 300}, []int{1, 9}))
	done, _ := json.Marshal(GenerateResponse{Model: "m", CreatedAt: now(), Done: true,
		DoneReason: "stop", Context: []int{1, 2, 3}, EvalCount: 3})
	f.Add(done)
	f.Add([]byte(`{"model":"m","response":"no ids"}`))
	f.Add([]byte(`{"response":"ab","tokens":[1,2],"token_ends":[2,1]}`))
	f.Add([]byte(`{"response":"ab","tokens":[1,2],"token_ends":[1]}`))
	f.Add([]byte(`{"response":"ab","tokens":[1,2],"token_ends":[1,3]}`))
	f.Add([]byte(`{"response":"�","tokens":[1],"response_raw":"ww=="}`))
	f.Add([]byte(` { "tokens" : [ -1 , 0 ] , "token_ends":[0,0], "response" : "" } `))

	f.Fuzz(func(t *testing.T, line []byte) {
		var tl tokenLine
		var gr GenerateResponse
		jsonErr := json.Unmarshal(line, &gr)
		if tl.decode(line) {
			if jsonErr != nil || gr.Done {
				t.Fatalf("fast decoder accepted a line encoding/json reads as err=%v done=%v: %q", jsonErr, gr.Done, line)
			}
			var ref tokenLine
			ref.fromResponse(&gr)
			if !bytes.Equal(tl.text, ref.text) || !equalInts(tl.ids, ref.ids) || !equalInts(tl.ends, ref.ends) {
				t.Fatalf("fast decoder read %q %v %v, encoding/json %q %v %v: %q",
					tl.text, tl.ids, tl.ends, ref.text, ref.ids, ref.ends, line)
			}
		} else {
			if jsonErr != nil || gr.Done {
				return
			}
			tl.fromResponse(&gr)
		}
		if len(tl.ids) == 0 {
			return // the pump skips the line or refuses the session
		}
		got, err := drainTokens(&tl)
		if err != nil {
			return // rejected before buffering
		}
		var text []byte
		for i, c := range got {
			text = append(text, c.Text...)
			if c.EvalCount != 1 || !equalInts(c.Context, tl.ids[:i+1]) {
				t.Fatalf("token %d drained as %+v, want id %d: %q", i, c, tl.ids[i], line)
			}
		}
		if len(got) != len(tl.ids) || !bytes.Equal(text, tl.text) {
			t.Fatalf("drained %d tokens %q from a line of %d tokens %q: %q", len(got), text, len(tl.ids), tl.text, line)
		}

		ends := tl.ends
		if len(ends) == 0 {
			ends = []int{len(tl.text)}
		}
		var back tokenLine
		if again := echoLine(string(tl.text), tl.ids, ends); !back.decode(again) {
			t.Fatalf("fast decoder declined the daemon's re-encoding %q of %q", again, line)
		}
		if regot, err := drainTokens(&back); err != nil || !reflect.DeepEqual(regot, got) {
			t.Fatalf("round trip through the daemon's encoder drained %+v (%v), want %+v: %q", regot, err, got, line)
		}
	})
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
