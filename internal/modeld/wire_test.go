package modeld

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"llmms/internal/llm"
	"llmms/internal/telemetry"
)

// echoLine is the token line the daemon writes for a stream_tokens
// request carrying these tokens.
func echoLine(text string, ids, ends []int) []byte {
	lw := newLineWriter(nil, "llama3:8b", true)
	defer lw.release()
	return lw.appendTokenLine(nil, time.Unix(1700000000, 123), []byte(text), ids, ends)
}

// drainTokens hands a decoded line to a fresh session as its last batch
// and drains it one token at a time, or reports the line's rejection.
func drainTokens(tl *streamLine) ([]llm.Chunk, error) {
	resp, _, cancel := scriptedReply("", io.EOF)
	s := New("http://modeld").streamReply(llm.ChunkRequest{}, resp, requestBufPool.Get().(*requestBuf), nil, cancel)
	defer s.Close()
	last := *tl
	last.done, last.doneReason, last.context = true, llm.DoneStop, nil
	if err := s.take(&last); err != nil {
		return nil, err
	}
	var out []llm.Chunk
	for {
		c, err := s.Next(context.Background(), 1)
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
		var fast, ref streamLine
		if !fast.decode(line) {
			t.Fatalf("%s: fast decoder declined the daemon's own line: %s", tc.name, line)
		}
		ref.fromResponse(&gr)
		for _, tl := range []*streamLine{&fast, &ref} {
			if string(tl.text) != tc.text || !reflect.DeepEqual(tl.ids, tc.ids) || (tc.wantEnds && !reflect.DeepEqual(tl.ends, tc.ends)) {
				t.Fatalf("%s: decoded %q %v %v, want %q %v %v", tc.name, tl.text, tl.ids, tl.ends, tc.text, tc.ids, tc.ends)
			}
		}
	}
}

// TestTokenLineDecoderDeclines lists lines the fast decoder must leave to
// encoding/json: foreign fields, a token line with done members, and
// anything whose reading it could get wrong. (A done line carrying tokens
// is the daemon's own: the session's last batch.)
func TestTokenLineDecoderDeclines(t *testing.T) {
	span := func(member string) string {
		return `{"model":"m","response":"","done":true,"spans":[{"trace_id":"t","span_id":"s","name":"n",` + member + `}]}`
	}
	for _, line := range []string{
		`{"model":"m","response":"","done":true,"done_reason":"stop","context":[1,2],"total_duration":5}`,
		`{"model":"m","response":"","done":true,"done_reason":"stop","done_reason":"length"}`,
		`{"model":"m","response":"x","done":true,"tokens":[1.0]}`,
		`{"model":"m","response":"","done":true,"context":null}`,
		`{"model":"m","response":"","done":true,"eval_count":3.0}`,
		`{"model":"m","response":"","done":true,"eval_count":"3"}`,
		`{"model":"m","response":"","done":true,"spans":null}`,
		`{"model":"m","response":"","done":true,"spans":[null]}`,
		`{"model":"m","response":"","done":null}`,
		`{"model":"m","response":"","context":[1]}`,
		span(`"start":"2026-10-02T21:26:38\u002e5Z"`),
		span(`"start":"yesterday"`),
		span(`"start":null`),
		span(`"duration_ns":1e3`),
		span(`"attrs":null`),
		span(`"attrs":{"k":1}`),
		span(`"status":"ok","status":"ok"`),
		span(`"Status":"ok"`),
		span(`"links":[]`),
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
		var tl streamLine
		if tl.decode([]byte(line)) {
			t.Errorf("fast decoder accepted %s", line)
		}
	}
}

// testSpans are two daemon span records as a done line carries them: a
// root with a remote parent and attributes, and a failed child.
func testSpans() []telemetry.SpanRecord {
	start := time.Date(2026, 10, 2, 21, 26, 38, 123456789, time.UTC)
	return []telemetry.SpanRecord{
		{TraceID: "0123456789abcdef0123456789abcdef", SpanID: "1111111111111111", ParentID: "2222222222222222",
			Name: "engine.generate", Service: "modeld", Start: start.Add(time.Millisecond), Duration: 1234567,
			Attrs: map[string]string{"tokens": "42", "batch_occupancy": "1", "lines": "3"}, Status: "ok"},
		{TraceID: "0123456789abcdef0123456789abcdef", SpanID: "3333333333333333",
			Name: "modeld.handle_generate", Start: start.In(time.FixedZone("", 2*3600)), Duration: 0,
			Attrs: map[string]string{"model": "llama3:8b \"quoted\" <&>"}, Status: "error", Error: "context canceled\n"},
	}
}

// testTraceID is the trace testSpans belong to.
const testTraceID = "0123456789abcdef0123456789abcdef"

// traceOf returns the root of a trace of testTraceID whose finished spans
// are recs and nothing else: the root itself stays open, so it is in no
// walk and the arena is never recycled under the test.
func traceOf(recs []telemetry.SpanRecord) *telemetry.Span {
	_, root := telemetry.NewTracer("test").StartRootFrom(context.Background(), "test", testTraceID, "00000000000000ff")
	root.Adopt(recs)
	return root
}

// graftedFrom is what the scanner grafts off an accepted done line into a
// trace of testTraceID.
func graftedFrom(sl *streamLine, line []byte) []telemetry.SpanRecord {
	root := traceOf(nil)
	sl.graftSpans(line, root)
	return root.Records()
}

// doneLine is the done line the daemon writes for a stream_tokens request
// ending on final, carrying spans.
func doneLine(tail string, final llm.Chunk, spans []telemetry.SpanRecord) []byte {
	return lastBatchLine(tail, nil, nil, final, spans)
}

// lastBatchLine is doneLine carrying the session's last batch of tokens.
func lastBatchLine(text string, ids, ends []int, final llm.Chunk, spans []telemetry.SpanRecord) []byte {
	lw := newLineWriter(nil, "llama3:8b", true)
	defer lw.release()
	var root *telemetry.Span
	if len(spans) > 0 {
		root = traceOf(spans)
	}
	return lw.appendDoneLine(nil, time.Unix(1700000000, 123), []byte(text), ids, ends, final, root)
}

// TestDoneLineEncoding pins the done line against encoding/json, the
// writer it replaced: the same bytes, HTML escapes included, the same
// decoded values, and both decoders read it back to what was written.
func TestDoneLineEncoding(t *testing.T) {
	at := time.Unix(1700000000, 123).UTC().Format(time.RFC3339Nano)
	for _, tc := range []struct {
		name      string
		final     llm.Chunk
		spans     []telemetry.SpanRecord
		text      string // the last batch the line carries
		ids, ends []int
	}{
		{name: "stop", final: llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{5, 6, 7}, EvalCount: 3, TotalTokens: 3}},
		{name: "length, continued", final: llm.Chunk{Done: true, DoneReason: llm.DoneLength, Context: []int{1, 2, 3, 4}, EvalCount: 2, TotalTokens: 4}},
		{name: "cancel before a token", final: llm.Chunk{Done: true, DoneReason: llm.DoneCancel, Context: []int{}}},
		{name: "no reason", final: llm.Chunk{Done: true}},
		{name: "one span", final: llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{9}, EvalCount: 1}, spans: testSpans()[:1]},
		{name: "two spans", final: llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{9}, EvalCount: 1}, spans: testSpans()},
		{name: "last token", final: llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{8, 9}, EvalCount: 2},
			text: ".", ids: []int{9}},
		{name: "last batch cut mid-character", final: llm.Chunk{Done: true, DoneReason: llm.DoneLength, Context: []int{1, 2, 3}, EvalCount: 3},
			text: " Bras\xc3", ids: []int{1, 2, 3}, ends: []int{1, 5, 6}, spans: testSpans()[:1]},
	} {
		line := lastBatchLine(tc.text, tc.ids, tc.ends, tc.final, tc.spans)
		want := GenerateResponse{Model: "llama3:8b", CreatedAt: at, Response: tc.text, Done: true,
			DoneReason: string(tc.final.DoneReason), Context: tc.final.Context, EvalCount: tc.final.EvalCount,
			Tokens: tc.ids, TokenEnds: tc.ends, Spans: tc.spans}
		if !utf8.ValidString(tc.text) {
			want.ResponseRaw = []byte(tc.text)
		}
		ref, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != string(ref)+"\n" {
			t.Fatalf("%s: done line\n %s encoding/json wrote\n %s", tc.name, line, ref)
		}
		var gr, grRef GenerateResponse
		if err := json.Unmarshal(line, &gr); err != nil {
			t.Fatalf("%s: encoding/json rejects the line: %v\n%s", tc.name, err, line)
		}
		if err := json.Unmarshal(ref, &grRef); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gr, grRef) {
			t.Fatalf("%s: done line decodes to\n %+v, encoding/json's to\n %+v", tc.name, gr, grRef)
		}
		var fast, slow streamLine
		if !fast.decode(line) {
			t.Fatalf("%s: fast decoder declined the daemon's own done line: %s", tc.name, line)
		}
		slow.fromResponse(&gr)
		for _, sl := range []*streamLine{&fast, &slow} {
			if !sl.done || sl.doneReason != tc.final.DoneReason || sl.evalCount != tc.final.EvalCount ||
				!equalInts(sl.context, tc.final.Context) || string(sl.text) != tc.text ||
				!equalInts(sl.ids, tc.ids) || !equalInts(sl.ends, tc.ends) {
				t.Fatalf("%s: decoded %+v, want %+v carrying %q %v %v", tc.name, sl, tc.final, tc.text, tc.ids, tc.ends)
			}
		}
		// The spans go from the line straight into the caller's trace, and
		// read back as what encoding/json reads off the same line.
		if got := graftedFrom(&fast, line); len(got) != len(tc.spans) || (len(tc.spans) > 0 && !reflect.DeepEqual(got, gr.Spans)) {
			t.Fatalf("%s: grafted spans %+v, want %+v", tc.name, got, gr.Spans)
		}
		if got := traceOf(gr.Spans).Records(); len(got) != len(tc.spans) || (len(tc.spans) > 0 && !reflect.DeepEqual(got, gr.Spans)) {
			t.Fatalf("%s: adopted spans %+v, want %+v", tc.name, got, gr.Spans)
		}
	}

	// The Ollama-shaped done line carries the held-back tail and none of
	// the token extension's members.
	final := llm.Chunk{Done: true, DoneReason: llm.DoneLength, Context: []int{1, 2}, EvalCount: 2}
	lw := newLineWriter(nil, "llama3:8b", false)
	defer lw.release()
	line := lw.appendDoneLine(nil, time.Unix(1700000000, 123), []byte("Bras\xc3"), nil, nil, final, nil)
	var plain GenerateResponse
	if err := json.Unmarshal(line, &plain); err != nil {
		t.Fatal(err)
	}
	if want := (GenerateResponse{Model: "llama3:8b", CreatedAt: at, Response: "Bras\ufffd", Done: true,
		DoneReason: "length", Context: []int{1, 2}, EvalCount: 2}); !reflect.DeepEqual(plain, want) || bytes.Contains(line, []byte("response_raw")) {
		t.Fatalf("Ollama-shaped done line %s decodes to %+v, want %+v", line, plain, want)
	}
	// A stream=false reply to a stream_tokens request is the done object
	// with all of the text, byte-exact through response_raw.
	var gr GenerateResponse
	if err := json.Unmarshal(doneLine("Bras\xc3", final, nil), &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Response != "Bras\ufffd" || string(gr.ResponseRaw) != "Bras\xc3" {
		t.Fatalf("reply cut mid-character decodes to %q / raw %q", gr.Response, gr.ResponseRaw)
	}
}

// TestFastDecodersAllocateNothing pins the point of the scanner: a token
// line and a span-less done line are read into reused storage.
func TestFastDecodersAllocateNothing(t *testing.T) {
	token := echoLine(" bats are not blind", []int{412, 9, 77, 1030}, []int{5, 9, 13, 19})
	done := doneLine("", llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{412, 9, 77, 1030}, EvalCount: 4}, nil)
	var sl streamLine
	for _, line := range [][]byte{token, done} {
		sl.decode(line)
		if n := testing.AllocsPerRun(100, func() {
			if !sl.decode(line) {
				t.Fatalf("declined %s", line)
			}
		}); n != 0 {
			t.Errorf("decoding %s allocates %v times, want 0", line, n)
		}
	}
	// A done line with the daemon's two spans, written from an arena and
	// read into one: nothing is allocated at either end.
	if !raceEnabled {
		_, caller := telemetry.NewTracer("llmms").StartRoot(context.Background(), "query")
		caller.Hold()
		defer caller.Release()
		tid, sid, _ := telemetry.ParseTraceparent(caller.Traceparent())
		lw := newLineWriter(nil, "llama3:8b", true)
		defer lw.release()
		final := llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{412, 9, 77, 1030}, EvalCount: 4}
		var line []byte
		hop := func() {
			_, root := telemetry.NewTracer("modeld").StartRootFrom(context.Background(), "modeld.handle_generate", tid, sid)
			root.SetAttr("model", "llama3:8b")
			gen := root.Child("engine.generate")
			gen.SetInt("batch_occupancy", 1)
			gen.SetInt("tokens", 4)
			gen.SetInt("lines", 2)
			gen.End(nil)
			root.Hold()
			root.End(nil)
			line = lw.appendDoneLine(line[:0], time.Unix(1700000000, 123), nil, nil, nil, final, root)
			root.Release()
			stream := caller.Child("modeld.stream")
			if !sl.decode(line) {
				t.Fatalf("declined %s", line)
			}
			sl.graftSpans(line, stream)
			stream.End(nil)
		}
		hop()
		// 100 hops fit under the caller's span cap: 3 spans each.
		if n := testing.AllocsPerRun(100, hop); n != 1 {
			t.Errorf("a traced done line over the hop allocates %v times, want 1 (the daemon root's context)", n)
		}
	}
	var req GenerateRequest
	req.Model, req.Prompt, req.Context = "llama3:8b", "Question: Are bats blind?\nAnswer:", []int{1, 2, 3}
	req.Options.NumPredict, req.Options.StreamTokens = 128, true
	var rb requestBuf
	rb.encode(&req)
	if n := testing.AllocsPerRun(100, func() { rb.encode(&req) }); n != 0 {
		t.Errorf("encoding a request allocates %v times, want 0", n)
	}
}

// streamLineSeeds are FuzzStreamLine's seed lines: the daemon's token
// lines, batched and split mid-character, done lines of every shape, and
// lines it does not write.
func streamLineSeeds() [][]byte {
	done, _ := json.Marshal(GenerateResponse{Model: "m", CreatedAt: "2026-10-02T21:26:38.001367449Z", Done: true,
		DoneReason: "stop", Context: []int{1, 2, 3}, EvalCount: 3})
	return [][]byte{
		echoLine(" bats", []int{412}, nil),
		echoLine(" bats are not blind", []int{412, 9, 77, 1030}, []int{5, 9, 13, 19}),
		echoLine("Bras\xc3", []int{66, 114, 195}, []int{1, 4, 5}),
		echoLine("\xadlia \"x\"\n", []int{173, 300}, []int{1, 9}),
		done,
		[]byte(`{"model":"m","response":"no ids"}`),
		[]byte(`{"response":"ab","tokens":[1,2],"token_ends":[2,1]}`),
		[]byte(`{"response":"ab","tokens":[1,2],"token_ends":[1]}`),
		[]byte(`{"response":"ab","tokens":[1,2],"token_ends":[1,3]}`),
		[]byte(`{"response":"�","tokens":[1],"response_raw":"ww=="}`),
		[]byte(` { "tokens" : [ -1 , 0 ] , "token_ends":[0,0], "response" : "" } `),
		// Done lines as the daemon writes them: every reason, with and
		// without a context, no span records and two, attributes, an error
		// status.
		doneLine("", llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{5, 6, 7}, EvalCount: 3}, nil),
		doneLine("", llm.Chunk{Done: true, DoneReason: llm.DoneLength, Context: []int{1, 2, 3, 4}, EvalCount: 2}, testSpans()),
		doneLine("", llm.Chunk{Done: true, DoneReason: llm.DoneCancel}, testSpans()[1:]),
		doneLine("tail", llm.Chunk{Done: true, DoneReason: llm.DoneStop, EvalCount: 1}, nil),
		// Done lines carrying the session's last batch.
		lastBatchLine(".", []int{9}, nil, llm.Chunk{Done: true, DoneReason: llm.DoneStop, Context: []int{8, 9}, EvalCount: 2}, nil),
		lastBatchLine(" Bras\xc3", []int{1, 2, 3}, []int{1, 5, 6}, llm.Chunk{Done: true, DoneReason: llm.DoneLength, EvalCount: 3}, testSpans()),
		[]byte(`{"done":true,"spans":[{"trace_id":"t","span_id":"s","name":"n","start":"2026-10-02T21:26:38+02:00","duration_ns":-5,"attrs":{},"status":""}]}`),
		[]byte(`{"done":true,"done_reason":"stop","context":[1],"total_duration":12345}`),
		[]byte(`{"done":true,"spans":[{"span_id":"s","start":"0000-10-01T00:00:00+00:00","attrs":{"":"","0":""},"status":"","links":0}]}`),
		manySpansLine(600),
	}
}

// FuzzStreamLine feeds arbitrary bytes through the client's line decoder
// and the session's validator. Whatever the input: no panic; a line the
// fast decoder accepts — token line or done line — is one encoding/json
// reads to exactly the same values; a token line a session holds drains
// to exactly its own ids and text; and an accepted line re-encoded
// by the daemon's writer decodes (on the fast path) to the same values
// again.
func FuzzStreamLine(f *testing.F) {
	for _, seed := range streamLineSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		var sl streamLine
		var gr GenerateResponse
		var spans *telemetry.Span // the trace the line's spans went into
		jsonErr := json.Unmarshal(line, &gr)
		if sl.decode(line) {
			if jsonErr != nil {
				t.Fatalf("fast decoder accepted a line encoding/json rejects (%v): %q", jsonErr, line)
			}
			var ref streamLine
			ref.fromResponse(&gr)
			if !bytes.Equal(sl.text, ref.text) || !equalInts(sl.ids, ref.ids) || !equalInts(sl.ends, ref.ends) {
				t.Fatalf("fast decoder read %q %v %v, encoding/json %q %v %v: %q",
					sl.text, sl.ids, sl.ends, ref.text, ref.ids, ref.ends, line)
			}
			if sl.done != ref.done || sl.doneReason != ref.doneReason || sl.evalCount != ref.evalCount ||
				!equalInts(sl.context, ref.context) || !bytes.Equal(sl.response, ref.response) {
				t.Fatalf("fast decoder read done=%v %q %d %v %q, encoding/json done=%v %q %d %v %q: %q",
					sl.done, sl.doneReason, sl.evalCount, sl.context, sl.response,
					ref.done, ref.doneReason, ref.evalCount, ref.context, ref.response, line)
			}
			// What the scanner grafts into the caller's trace is what Adopt
			// makes of encoding/json's records: the records of that trace
			// whose IDs are a tracer's, up to the span cap, the rest dropped.
			spans = traceOf(nil)
			sl.graftSpans(line, spans)
			if got, want := spans.Records(), traceOf(gr.Spans).Records(); !sameSpans(got, want) {
				t.Fatalf("fast decoder grafted spans %+v, encoding/json and Adopt %+v: %q", got, want, line)
			}
		} else {
			if jsonErr != nil {
				return
			}
			sl.fromResponse(&gr)
			spans = traceOf(gr.Spans)
		}
		if sl.done {
			// Through the daemon's encoder and back: the terminal fields,
			// the spans and the last batch's exact bytes and tokens (the
			// writer puts token_ends on a line of more than one token).
			lw := newLineWriter(nil, "m", true)
			defer lw.release()
			final := llm.Chunk{Done: true, DoneReason: sl.doneReason, Context: sl.context, EvalCount: sl.evalCount}
			ends := sl.ends
			if len(sl.ids) < 2 {
				ends = nil
			}
			again := lw.appendDoneLine(nil, time.Now(), sl.text, sl.ids, ends, final, spans)
			for _, r := range spans.Records() {
				if y := r.Start.Year(); y < 0 || y > 9999 {
					return // not a time encoding/json would have written
				}
			}
			var back streamLine
			if !back.decode(again) {
				t.Fatalf("fast decoder declined the daemon's re-encoding %q of %q", again, line)
			}
			if !back.done || back.doneReason != sl.doneReason || back.evalCount != sl.evalCount ||
				!equalInts(back.context, sl.context) || !bytes.Equal(back.text, sl.text) ||
				!equalInts(back.ids, sl.ids) || !equalInts(back.ends, ends) ||
				!sameSpans(graftedFrom(&back, again), spans.Records()) {
				t.Fatalf("round trip through the daemon's encoder read %+v, want %+v: %q", back, sl, line)
			}
		}
		if len(sl.ids) == 0 {
			return // the pump skips the line or refuses the session
		}
		got, err := drainTokens(&sl)
		if err != nil {
			return // rejected before buffering
		}
		var text []byte
		for i, c := range got {
			text = append(text, c.Text...)
			if c.EvalCount != 1 || !equalInts(c.Context, sl.ids[:i+1]) {
				t.Fatalf("token %d drained as %+v, want id %d: %q", i, c, sl.ids[i], line)
			}
		}
		if len(got) != len(sl.ids) || !bytes.Equal(text, sl.text) {
			t.Fatalf("drained %d tokens %q from a line of %d tokens %q: %q", len(got), text, len(sl.ids), sl.text, line)
		}
		if sl.done {
			return
		}

		ends := sl.ends
		if len(ends) == 0 {
			ends = []int{len(sl.text)}
		}
		var back streamLine
		if again := echoLine(string(sl.text), sl.ids, ends); !back.decode(again) {
			t.Fatalf("fast decoder declined the daemon's re-encoding %q of %q", again, line)
		}
		if regot, err := drainTokens(&back); err != nil || !reflect.DeepEqual(regot, got) {
			t.Fatalf("round trip through the daemon's encoder drained %+v (%v), want %+v: %q", regot, err, got, line)
		}
	})
}

// manySpansLine is a done line carrying n span records of testTraceID —
// more than a trace may hold, for n past telemetry.MaxSpansPerTrace.
func manySpansLine(n int) []byte {
	line := []byte(`{"model":"m","created_at":"2026-10-02T21:26:38Z","response":"","done":true,"done_reason":"stop","spans":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			line = append(line, ',')
		}
		line = fmt.Appendf(line, `{"trace_id":"%s","span_id":"%016x","name":"engine.generate","service":"modeld",`+
			`"start":"2026-10-02T21:26:38Z","duration_ns":%d,"attrs":{"tokens":"%d"},"status":"ok"}`, testTraceID, i+1, i, i)
	}
	return append(line, "]}"...)
}

// TestDoneLineSpanCap: the span cap applies while the done line is
// decoded, not after it was materialised — records past it are still
// checked, are counted as dropped, and are not kept anywhere; a malformed
// record past the cap still makes the scanner decline the line.
func TestDoneLineSpanCap(t *testing.T) {
	line := manySpansLine(600)
	var sl streamLine
	if !sl.decode(line) {
		t.Fatal("the scanner declined a done line of 600 span records")
	}
	if cap(sl.span.Attrs) > 8 || cap(sl.span.Text) > 64 {
		t.Fatalf("decoding kept %d attrs / %d bytes of text: the records were materialised", cap(sl.span.Attrs), cap(sl.span.Text))
	}
	root := traceOf(nil)
	sl.graftSpans(line, root)
	root.End(nil)
	recs := root.Records()
	if len(recs) != telemetry.MaxSpansPerTrace {
		t.Fatalf("grafted %d records, want the cap %d", len(recs), telemetry.MaxSpansPerTrace)
	}
	if got := recs[len(recs)-1].Attrs["dropped_spans"]; got != "89" { // 600 − (512 − the root)
		t.Fatalf("root reports dropped_spans %q, want 89", got)
	}
	bad := bytes.Replace(line, []byte(`"duration_ns":599,`), []byte(`"duration_ns":5.5,`), 1)
	if bytes.Equal(bad, line) || sl.decode(bad) {
		t.Fatal("the scanner accepted a line whose 600th record is malformed")
	}
}

// testRequests are /api/generate requests as the client sends them, with
// the prompts that stress the string encoder.
func testRequests() []GenerateRequest {
	var reqs []GenerateRequest
	for _, prompt := range []string{
		"Question: Are bats blind?\nAnswer:",
		"",
		"quotes \"and\" back\\slashes, tabs\tand\r\nnewlines, \x01 control, <html> & more",
		"line\u2028and paragraph\u2029separators, Brasília, 北京, 🦊",
		"invalid \xc3 UTF-8 \xff bytes \xe2\x82",
	} {
		var plain, full GenerateRequest
		plain.Model, plain.Prompt = "llama3:8b", prompt
		full = plain
		full.Context = []int{412, 9, 77, 1030}
		full.Options.NumPredict, full.Options.StreamTokens = 128, true
		off := false
		full.Stream = &off
		reqs = append(reqs, plain, full)
	}
	var predictOnly, tokensOnly GenerateRequest
	predictOnly.Options.NumPredict = -1
	tokensOnly.Options.StreamTokens = true
	on := true
	tokensOnly.Stream = &on
	return append(reqs, predictOnly, tokensOnly)
}

// TestGenerateRequestEncoding holds the request body the client writes to
// the json.Marshal it replaced: the same bytes, so it unmarshals to the
// same GenerateRequest, and the daemon's scanner reads it to that too.
func TestGenerateRequestEncoding(t *testing.T) {
	for _, req := range testRequests() {
		ref, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var want GenerateRequest
		if err := json.Unmarshal(ref, &want); err != nil {
			t.Fatal(err)
		}
		var rb requestBuf
		rb.encode(&req)
		if !bytes.Equal(rb.body, ref) {
			t.Fatalf("body\n %s\njson.Marshal wrote\n %s", rb.body, ref)
		}
		var got, fast GenerateRequest
		if err := json.Unmarshal(rb.body, &got); err != nil {
			t.Fatalf("encoding/json rejects the body %s: %v", rb.body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %s\n unmarshals to %+v,\n json.Marshal's %s\n to %+v", rb.body, got, ref, want)
		}
		if !rb.decode(&fast) {
			t.Fatalf("scanner declined the client's own body %s", rb.body)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("scanner read %s as %+v, want %+v", rb.body, fast, want)
		}
	}
}

// FuzzGenerateRequest holds the daemon's request scanner to encoding/json
// on arbitrary bodies: it never panics, and whatever it accepts it reads
// exactly as json.Unmarshal does; a body it declines leaves the request
// zero for the fallback.
func FuzzGenerateRequest(f *testing.F) {
	for _, req := range testRequests() {
		var rb requestBuf
		rb.encode(&req)
		f.Add(rb.body)
		if ref, err := json.Marshal(req); err == nil {
			f.Add(ref)
			f.Add(ref[:len(ref)/2]) // truncated
		}
	}
	f.Add([]byte(`{"model":"m","prompt":"p","system":"be brief","keep_alive":"5m"}`))
	f.Add([]byte(`{"model":"m","prompt":"p","options":{"temperature":0.2}}`))
	f.Add([]byte(`{"model":"m","model":"n"}`))
	f.Add([]byte(`{"model":"m","stream":null,"context":null}`))
	f.Add([]byte(`{"model":"m","context":[]} trailing`))
	f.Add([]byte(` { "model" : "m" , "options" : { } , "context" : [ ] } `))
	f.Add([]byte(`{"model":"m","options":{"num_predict":12345678901234567890}}`))
	f.Add([]byte(`{"model":"m","prompt":"` + strings.Repeat("long ", 4000) + `"}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rb := requestBuf{body: body}
		var fast, ref GenerateRequest
		if !rb.decode(&fast) {
			if !reflect.DeepEqual(fast, GenerateRequest{}) {
				t.Fatalf("declined body left %+v behind: %q", fast, body)
			}
			return
		}
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("scanner accepted a body encoding/json rejects (%v): %q", err, body)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("scanner read %+v, encoding/json %+v: %q", fast, ref, body)
		}
	})
}

// sameSpans compares span records as values on the wire: the same instant
// at the same offset whatever Location says so, and no attributes the
// same as an empty set of them (encoding/json omits both).
func sameSpans(a, b []telemetry.SpanRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		_, xoff := x.Start.Zone()
		_, yoff := y.Start.Zone()
		if !x.Start.Equal(y.Start) || xoff != yoff || len(x.Attrs) != len(y.Attrs) {
			return false
		}
		for k, v := range x.Attrs {
			if w, ok := y.Attrs[k]; !ok || v != w {
				return false
			}
		}
		x.Start, y.Start, x.Attrs, y.Attrs = time.Time{}, time.Time{}, nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
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
