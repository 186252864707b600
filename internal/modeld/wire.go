package modeld

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"llmms/internal/jsonwire"
	"llmms/internal/llm"
	"llmms/internal/telemetry"
)

// This file is the wire codec of the modeld hop, both ends of it: the
// daemon's line writer (one line and one Flush per drain of the
// generation, then the done line, which leaves with the end of the body),
// the client's decoder for the lines a stream_tokens session receives,
// and the /api/generate request body the client writes and the daemon
// reads. Everything is appended into pooled buffers and scanned out of
// them without reflection, through internal/jsonwire: every byte written
// is the byte encoding/json writes, and each decoder accepts only what it
// reads exactly as encoding/json would and declines the rest, the
// caller's only fallback being encoding/json itself (FuzzStreamLine,
// FuzzGenerateRequest).
//
// A token line carries a batch of tokens — as many as the engine had
// decoded when the writer came back for more, so one per line when
// decode is the slow side and a whole answer when the writer is (the
// batch that reaches the end rides on the done line instead):
//
//	{"model":…,"created_at":…,"response":"<text>","done":false,
//	 "tokens":[id,…],"token_ends":[off,…],"response_raw":"<base64>"}
//
// tokens, token_ends and response_raw are the stream_tokens extension.
// token_ends[i] is the byte offset in the line's text at which token i
// ends (omitted for a one-token line), which is what lets the client
// slice rounds on token boundaries however the tokens were batched. The
// byte-level BPE splits multi-byte characters across tokens, and JSON
// strings cannot carry the halves (encoding/json writes U+FFFD), so when
// a line's text is not valid UTF-8 — a line cut between the halves —
// response_raw carries the exact bytes and the offsets refer to them;
// response is then only the lossy rendering. Without stream_tokens the
// lines stay Ollama-shaped and the writer instead holds an incomplete
// trailing character back for the next line, so where a line is cut
// never corrupts text either way.

// lineWriter streams one generation as NDJSON. Writers are pooled: the
// batch, the output buffer and the held-back tail keep their capacity
// from stream to stream.
type lineWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when w cannot flush
	echo    bool         // stream_tokens: tokens, token_ends, response_raw

	prefix []byte // `{"model":"<model>","created_at":"`, fixed per stream
	batch  llm.TokenBatch
	pend   []byte // without echo: text not yet written (ends mid-character)
	out    []byte
	lines  int // token lines written
}

var lineWriterPool = sync.Pool{New: func() any { return new(lineWriter) }}

// newLineWriter borrows a writer for one response; release returns it.
func newLineWriter(w http.ResponseWriter, model string, echo bool) *lineWriter {
	lw := lineWriterPool.Get().(*lineWriter)
	lw.w, lw.echo, lw.lines = w, echo, 0
	lw.flusher, _ = w.(http.Flusher)
	lw.prefix = jsonwire.AppendString(append(lw.prefix[:0], `{"model":`...), model)
	lw.prefix = append(lw.prefix, `,"created_at":"`...)
	lw.pend = lw.pend[:0]
	return lw
}

func (lw *lineWriter) release() {
	// IDs aliases the generation's own id array; do not pin it in the pool.
	lw.w, lw.flusher, lw.batch.IDs = nil, nil, nil
	// One that grew for an outsized reply is dropped, as requestBuf's is.
	if max(cap(lw.out), cap(lw.batch.Text), cap(lw.pend)) <= maxPooledBody {
		lineWriterPool.Put(lw)
	}
}

// stream writes the generation as it is decoded: after each blocking
// Fill it has whatever else the engine had already decoded and writes one
// line and one Flush for the lot, so a token leaves the daemon the moment
// it is decoded and a burst costs one write. The fill that reaches the end
// writes the done line and returns without a Flush: the handler returns
// next, and net/http sends it with the body's end in one write. With echo
// the done line carries that fill's tokens, so a reader never holds a
// model's last token without its end; without it, they go on a line of
// their own first. finish runs on the terminal chunk just before it is
// written and returns the root of the trace whose spans it
// should carry. A failed write means the client went away; the request
// context stops the generation.
func (lw *lineWriter) stream(g *llm.Generation, finish func(final llm.Chunk) *telemetry.Span) {
	lw.writeHeader(ndjsonContentType)
	for {
		final, more := lw.batch.Fill(g)
		if (more || !lw.echo) && len(lw.batch.IDs) > 0 && !lw.writeTokens() {
			return
		}
		if !more {
			spans := finish(final)
			// Without echo, pend is the held-back tail that never completed
			// a character.
			if lw.echo {
				lw.writeDone(lw.batch.Text, lw.batch.IDs, lw.batch.Ends, final, spans)
			} else {
				lw.writeDone(lw.pend, nil, nil, final, spans)
			}
			return
		}
		lw.flush()
	}
}

// flush sends what has been written.
func (lw *lineWriter) flush() {
	if lw.flusher != nil {
		lw.flusher.Flush()
	}
}

// reply writes a whole stream=false answer: the done object carrying all
// of the text.
func (lw *lineWriter) reply(text string, final llm.Chunk, spans *telemetry.Span) {
	lw.writeHeader(jsonContentType)
	lw.pend = append(lw.pend[:0], text...)
	lw.writeDone(lw.pend, nil, nil, final, spans)
}

// writeHeader answers 200 without a Date, which the client would only parse.
func (lw *lineWriter) writeHeader(contentType []string) {
	h := lw.w.Header()
	h["Content-Type"], h["Date"] = contentType, nil
	lw.w.WriteHeader(http.StatusOK)
}

// writeDone writes the line that ends the response.
func (lw *lineWriter) writeDone(text []byte, ids, ends []int, final llm.Chunk, spans *telemetry.Span) {
	lw.out = lw.appendDoneLine(lw.out[:0], time.Now(), text, ids, ends, final, spans)
	_, _ = lw.w.Write(lw.out) // a failed write leaves nothing more to do: the client went away
}

// writeTokens writes the filled batch as one token line, reporting
// whether the client is still there.
func (lw *lineWriter) writeTokens() bool {
	if lw.echo {
		return lw.writeLine(lw.batch.Text, lw.batch.IDs, lw.batch.Ends)
	}
	lw.pend = append(lw.pend, lw.batch.Text...)
	text := lw.pend[:len(lw.pend)-incompleteTail(lw.pend)]
	ok := len(text) == 0 || lw.writeLine(text, nil, nil)
	lw.pend = append(lw.pend[:0], lw.pend[len(text):]...)
	return ok
}

func (lw *lineWriter) writeLine(text []byte, ids, ends []int) bool {
	lw.out = lw.appendTokenLine(lw.out[:0], time.Now(), text, ids, ends)
	lw.lines++
	_, err := lw.w.Write(lw.out)
	return err == nil
}

// appendHead appends the members every line opens with, in declaration
// order: model, created_at, response and done.
func (lw *lineWriter) appendHead(dst []byte, at time.Time, text []byte, done bool) []byte {
	dst = at.UTC().AppendFormat(append(dst, lw.prefix...), time.RFC3339Nano)
	dst = jsonwire.AppendString(append(dst, `","response":`...), text)
	return strconv.AppendBool(append(dst, `,"done":`...), done)
}

// appendTokenLine appends the NDJSON line for one batch of tokens. ids
// and ends are written only on echo lines.
func (lw *lineWriter) appendTokenLine(dst []byte, at time.Time, text []byte, ids, ends []int) []byte {
	dst = lw.appendTokens(lw.appendHead(dst, at, text, false), text, ids, ends)
	return append(dst, "}\n"...)
}

// appendTokens appends the stream_tokens members of a batch — tokens,
// token_ends, response_raw — on echo lines.
func (lw *lineWriter) appendTokens(dst, text []byte, ids, ends []int) []byte {
	if !lw.echo {
		return dst
	}
	if len(ids) > 0 {
		dst = jsonwire.AppendInts(append(dst, `,"tokens":`...), ids)
	}
	if len(ids) > 1 {
		dst = jsonwire.AppendInts(append(dst, `,"token_ends":`...), ends)
	}
	return appendResponseRaw(dst, text)
}

// appendResponseRaw appends the response_raw member when text is not
// valid UTF-8 and a JSON string could only carry it as U+FFFD.
func appendResponseRaw(dst, text []byte) []byte {
	if utf8.Valid(text) {
		return dst
	}
	dst = append(dst, `,"response_raw":"`...)
	dst = base64.StdEncoding.AppendEncode(dst, text)
	return append(dst, '"')
}

// appendDoneLine appends the line that ends a generation — or, with all of
// the text in it, the whole stream=false reply: the members of
// GenerateResponse in declaration order, the
// empty ones omitted as encoding/json omits them. ids and ends are the
// tokens of text, when the line carries a session's last batch. spans is
// the root of the daemon's trace of the generation, for a caller that sent
// a traceparent: its finished spans are written from the arena, in place.
func (lw *lineWriter) appendDoneLine(dst []byte, at time.Time, text []byte, ids, ends []int, final llm.Chunk, spans *telemetry.Span) []byte {
	dst = lw.appendHead(dst, at, text, true)
	dst = jsonwire.AppendText(dst, `,"done_reason":`, string(final.DoneReason))
	if len(final.Context) > 0 {
		dst = jsonwire.AppendInts(append(dst, `,"context":`...), final.Context)
	}
	dst = jsonwire.AppendInt(dst, `,"eval_count":`, int64(final.EvalCount))
	dst = lw.appendTokens(dst, text, ids, ends)
	sep := `,"spans":[`
	spans.Walk(func(d telemetry.SpanData) {
		dst = appendSpan(append(dst, sep...), &d)
		sep = ","
	})
	if sep == "," {
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// appendSpan appends d as encoding/json renders a telemetry.SpanRecord:
// members in declaration order, attrs (the arena keeps them sorted) by key,
// numbers as the strings they read back as.
func appendSpan(dst []byte, d *telemetry.SpanData) []byte {
	dst = hex.AppendEncode(append(dst, `{"trace_id":"`...), d.TraceID[:])
	dst = hex.AppendEncode(append(dst, `","span_id":"`...), d.SpanID[:])
	if d.ParentID != ([8]byte{}) {
		dst = hex.AppendEncode(append(dst, `","parent_id":"`...), d.ParentID[:])
	}
	dst = jsonwire.AppendString(append(dst, `","name":`...), d.Name)
	dst = jsonwire.AppendText(dst, `,"service":`, d.Service)
	dst = d.Start.AppendFormat(append(dst, `,"start":"`...), time.RFC3339Nano)
	dst = strconv.AppendInt(append(dst, `","duration_ns":`...), int64(d.Duration), 10)
	for i := range d.Attrs {
		if i == 0 {
			dst = append(dst, `,"attrs":{`...)
		} else {
			dst = append(dst, ',')
		}
		var num [24]byte
		dst = jsonwire.AppendString(dst, d.Attrs[i].Key)
		dst = jsonwire.AppendString(append(dst, ':'), d.Value(&d.Attrs[i], num[:0]))
	}
	if len(d.Attrs) > 0 {
		dst = append(dst, '}')
	}
	if !d.Failed {
		return append(dst, `,"status":"ok"}`...)
	}
	dst = jsonwire.AppendText(append(dst, `,"status":"error"`...), `,"error":`, d.Error)
	return append(dst, '}')
}

// incompleteTail is the length of the incomplete UTF-8 sequence b ends
// with, 0 when b ends on a character boundary (or in bytes that no
// continuation could complete).
func incompleteTail(b []byte) int {
	for n := 1; n < utf8.UTFMax && n <= len(b); n++ {
		if utf8.RuneStart(b[len(b)-n]) {
			if utf8.FullRune(b[len(b)-n:]) {
				return 0
			}
			return n
		}
	}
	return 0
}

// streamLine is one decoded line of a stream_tokens session, in storage
// the client's line reader reuses line after line and stream after
// stream. On a token line, text is the exact bytes of the line's tokens
// (response_raw when the line has it, else response); on the done line,
// done is set and the terminal fields are filled. The done line's span records are not kept
// here: decode checks them and notes where they start, graftSpans reads them
// straight into the caller's trace, one at a time through span.
type streamLine struct {
	text []byte // aliases raw or response
	ids  []int
	ends []int // empty when the line has no token_ends

	done       bool
	doneReason llm.DoneReason
	context    []int
	evalCount  int
	spansAt    int // offset of the spans array in the line, 0 without one
	span       telemetry.SpanData

	response, raw, scratch, key []byte
}

// Keys of a stream line, as bits of the decoder's seen-set.
const (
	keyModel = 1 << iota
	keyCreatedAt
	keyResponse
	keyDone
	keyTokens
	keyTokenEnds
	keyResponseRaw
	keyDoneReason
	keyContext
	keyEvalCount
	keySpans

	doneLineKeys = keyDoneReason | keyContext | keyEvalCount | keySpans
)

// once marks key as seen, reporting false when it already was.
func once(seen *int, key int) bool {
	if *seen&key != 0 {
		return false
	}
	*seen |= key
	return true
}

func (l *streamLine) reset() {
	*l = streamLine{
		ids: l.ids[:0], ends: l.ends[:0], context: l.context[:0], span: l.span,
		response: l.response[:0], raw: l.raw[:0], scratch: l.scratch, key: l.key,
	}
}

// decode reads line into l without reflection when it is a line of the
// shape the daemon writes: one JSON object of the known keys, each at
// most once — a token line ("done" false, the token members) or the done
// line ("done" true, done_reason, context, eval_count, spans, and the
// token members of the last batch). It reports false for anything else —
// a foreign daemon's extra fields, a token line with done members, escapes
// it does not read — and the caller falls back to
// encoding/json, which remains the reference: whenever decode accepts a
// line, it fills l exactly as fromResponse would from the unmarshalled
// line (FuzzStreamLine).
func (l *streamLine) decode(line []byte) bool {
	l.reset()
	s := jsonwire.Scanner{B: line, Key: l.key}
	seen := 0
	ok := s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "model":
			l.scratch, ok = s.Str(l.scratch[:0])
			return ok && once(&seen, keyModel)
		case "created_at":
			l.scratch, ok = s.Str(l.scratch[:0])
			return ok && once(&seen, keyCreatedAt)
		case "response":
			l.response, ok = s.Str(l.response)
			return ok && once(&seen, keyResponse)
		case "done":
			l.done, ok = s.Bool()
			return ok && once(&seen, keyDone)
		case "tokens":
			l.ids, ok = s.Ints(l.ids)
			return ok && once(&seen, keyTokens)
		case "token_ends":
			l.ends, ok = s.Ints(l.ends)
			return ok && once(&seen, keyTokenEnds)
		case "response_raw":
			if l.scratch, ok = s.Str(l.scratch[:0]); ok {
				var err error
				l.raw, err = base64.StdEncoding.AppendDecode(l.raw, l.scratch)
				ok = err == nil
			}
			return ok && once(&seen, keyResponseRaw)
		case "done_reason":
			l.scratch, ok = s.Str(l.scratch[:0])
			l.doneReason = doneReason(l.scratch)
			return ok && once(&seen, keyDoneReason)
		case "context":
			l.context, ok = s.Ints(l.context)
			return ok && once(&seen, keyContext)
		case "eval_count":
			l.evalCount, ok = s.Int()
			return ok && once(&seen, keyEvalCount)
		case "spans":
			s.SkipSpace()
			l.spansAt = s.I
			return once(&seen, keySpans) && s.Array(func() bool { return spanRecord(&s, &l.span, &l.scratch) })
		}
		return false
	})
	l.key = s.Key
	if !ok || !s.End() || !l.done && seen&doneLineKeys != 0 {
		return false
	}
	l.text = l.response
	if seen&keyResponseRaw != 0 {
		l.text = l.raw
	}
	return true
}

// doneReason is b as a DoneReason, without allocating for the ones the
// engine gives.
func doneReason(b []byte) llm.DoneReason {
	switch string(b) {
	case string(llm.DoneStop):
		return llm.DoneStop
	case string(llm.DoneLength):
		return llm.DoneLength
	case string(llm.DoneCancel):
		return llm.DoneCancel
	}
	return llm.DoneReason(b)
}

// fromResponse fills l from a line that went through encoding/json.
func (l *streamLine) fromResponse(gr *GenerateResponse) {
	l.reset()
	l.response = append(l.response, gr.Response...)
	l.text = l.response
	if gr.ResponseRaw != nil {
		l.text = gr.ResponseRaw
	}
	l.ids = append(l.ids, gr.Tokens...)
	l.ends = append(l.ends, gr.TokenEnds...)
	l.done, l.doneReason, l.evalCount = gr.Done, llm.DoneReason(gr.DoneReason), gr.EvalCount
	l.context = append(l.context, gr.Context...)
}

// graftSpans reads the span records of a done line decode accepted into
// sp's trace: one scan per record, into the same SpanData, so the trace's
// span cap bounds what a line can make the client keep. A record that is
// not of sp's trace, or whose IDs are not a tracer's, is checked and
// dropped, as Adopt drops it.
func (l *streamLine) graftSpans(line []byte, sp *telemetry.Span) {
	if l.spansAt == 0 || sp == nil {
		return
	}
	s := jsonwire.Scanner{B: line, I: l.spansAt, Key: l.key}
	s.Array(func() bool {
		ok := spanRecord(&s, &l.span, &l.scratch)
		sp.Graft(&l.span)
		return ok
	})
	l.key = s.Key
}

// Keys of a span record.
const (
	keyTraceID = 1 << iota
	keySpanID
	keyParentID
	keyName
	keyService
	keyStart
	keyDuration
	keyAttrs
	keyStatus
	keyError
)

// spanWord is b as a string, without allocating when it is one of the
// names, services and attribute keys the daemon's own spans are made of.
func spanWord(b []byte) string {
	for _, w := range [...]string{"modeld", "modeld.handle_generate", "engine.generate",
		"model", "batch_occupancy", "tokens", "lines", "dropped_spans", "dropped_attrs"} {
		if string(b) == w {
			return w
		}
	}
	return string(b)
}

// spanRecord reads s's next value, a telemetry.SpanRecord as JSON, into d,
// using scratch for its strings. An ID that is not a tracer's hex leaves
// d without a span ID, which is a record Graft discards.
func spanRecord(s *jsonwire.Scanner, d *telemetry.SpanData, scratch *[]byte) bool {
	d.Reset()
	seen, valid := 0, true
	id := func(dst []byte, key int) bool {
		// Hex has no escapes; a literal with one is left to encoding/json.
		lit, ok := s.Plain()
		if len(lit) > 0 || key != keyParentID {
			_, err := hex.Decode(dst, lit[:min(len(lit), 2*len(dst))])
			valid = valid && err == nil && len(lit) == 2*len(dst)
		}
		return ok && once(&seen, key)
	}
	str := func(key int) (ok bool) {
		*scratch, ok = s.Str((*scratch)[:0])
		return ok && once(&seen, key)
	}
	ok := s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "trace_id":
			return id(d.TraceID[:], keyTraceID)
		case "span_id":
			return id(d.SpanID[:], keySpanID)
		case "parent_id":
			return id(d.ParentID[:], keyParentID)
		case "name":
			ok = str(keyName)
			d.Name = spanWord(*scratch)
		case "service":
			ok = str(keyService)
			d.Service = spanWord(*scratch)
		case "start":
			// time.Time's UnmarshalJSON parses the literal's bytes as they
			// are, so only an escape-free literal reads the same here.
			lit, plain := s.Plain()
			ok = plain && d.Start.UnmarshalText(lit) == nil && once(&seen, keyStart)
		case "duration_ns":
			var n int
			n, ok = s.Int()
			d.Duration, ok = time.Duration(n), ok && once(&seen, keyDuration)
		case "attrs":
			ok = once(&seen, keyAttrs) && s.Object(func(key []byte) (ok bool) {
				k := spanWord(key)
				*scratch, ok = s.Str((*scratch)[:0])
				d.AddAttr(k, *scratch)
				return ok
			})
		case "status":
			ok = str(keyStatus)
			d.Failed = string(*scratch) == "error"
		case "error":
			ok = str(keyError)
			d.Error = append(d.Error, *scratch...)
		}
		return ok
	})
	if !valid {
		d.SpanID = [8]byte{}
	}
	return ok
}

// requestBuf is pooled storage for one /api/generate request body: the
// client encodes the request into body (and over the hop's own transport
// renders the whole request, head and body, into wire), the daemon reads it
// into body and scans it with the rest as scratch. Of a full-duplex request
// the daemon reads only the first line into body; rest is what arrived
// after it, and watch reads the remainder of the body through wire.
type requestBuf struct {
	body, wire []byte
	key, str   []byte
	ints       []int
	// duplex: the client sends body as a full-duplex request.
	duplex bool
	// req is what the daemon decodes body into.
	req GenerateRequest

	rest     []byte
	watching sync.WaitGroup // watch, while it runs
}

var requestBufPool = sync.Pool{New: func() any { return new(requestBuf) }}

// maxPooledBody bounds the buffers that go back to the pool: one that grew
// toward the body cap for an outsized request is dropped, not kept.
const maxPooledBody = 64 << 10

func (rb *requestBuf) release() {
	rb.rest, rb.duplex, rb.req = nil, false, GenerateRequest{}
	if max(cap(rb.body), cap(rb.wire)) <= maxPooledBody {
		requestBufPool.Put(rb)
	}
}

// stopLine is the line a client writes into the body of a full-duplex
// /api/generate request (a chunked one) to end the generation before its
// done line: the daemon stops it at the model's next step, ends the reply
// with the done line, and the connection stays open for the next request.
// The daemon advertises it on /api/version (versionBody.StopLine).
const stopLine = `{"stop":true}`

// readLine reads body up to its first newline into rb.body, the line
// without its newline, and keeps what arrived after it in rb.rest. A body
// that ends first is one line. The line is held to maxScanLine, as a whole
// body is.
func (rb *requestBuf) readLine(body io.Reader) error {
	buf := rb.body[:0]
	for {
		if len(buf) == cap(buf) {
			if len(buf) >= maxScanLine {
				return &http.MaxBytesError{Limit: maxScanLine}
			}
			buf = slices.Grow(buf, max(512, len(buf)))
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		i := bytes.IndexByte(buf[len(buf):len(buf)+n], '\n')
		if i >= 0 {
			i += len(buf)
			buf = buf[:len(buf)+n]
			rb.body, rb.rest = buf[:i], buf[i+1:]
			return nil
		}
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			rb.body, rb.rest = buf, nil
			return nil
		}
		if err != nil {
			rb.body = buf
			return err
		}
	}
}

// watch reads the rest of a full-duplex request's body — rb.rest, then
// body to its end — and stops g on every line that is exactly stopLine, and
// when the body breaks: the client went away. rb.watching is done when it
// returns.
func (rb *requestBuf) watch(body io.Reader, g *llm.Generation) {
	defer rb.watching.Done()
	if rb.wire = rb.wire[:cap(rb.wire)]; len(rb.wire) < 512 {
		rb.wire = make([]byte, 512)
	}
	at := 0
	if scanStop(&at, rb.rest) {
		g.Stop()
	}
	for {
		n, err := body.Read(rb.wire)
		if scanStop(&at, rb.wire[:n]) {
			g.Stop()
		}
		if err != nil {
			if err != io.EOF {
				g.Stop()
			}
			return
		}
	}
}

// scanStop reads p, the next bytes of a body of lines, and reports whether
// a line in it is exactly stopLine. at carries the line across calls: how
// many of its bytes matched stopLine so far, or -1 once it cannot.
func scanStop(at *int, p []byte) (stop bool) {
	for _, c := range p {
		switch k := *at; {
		case c == '\n':
			stop = stop || k == len(stopLine)
			*at = 0
		case k >= 0 && k < len(stopLine) && c == stopLine[k]:
			*at = k + 1
		default:
			*at = -1
		}
	}
	return stop
}

// encode renders req into rb.body byte for byte as json.Marshal renders a
// GenerateRequest: members in declaration order, the empty ones omitted,
// the options object always there.
func (rb *requestBuf) encode(req *GenerateRequest) {
	dst := jsonwire.AppendString(append(rb.body[:0], `{"model":`...), req.Model)
	dst = jsonwire.AppendString(append(dst, `,"prompt":`...), req.Prompt)
	if req.Stream != nil {
		dst = strconv.AppendBool(append(dst, `,"stream":`...), *req.Stream)
	}
	if len(req.Context) > 0 {
		dst = jsonwire.AppendInts(append(dst, `,"context":`...), req.Context)
	}
	dst = jsonwire.AppendInt(append(dst, `,"options":{`...), `"num_predict":`, int64(req.Options.NumPredict))
	if req.Options.StreamTokens {
		if req.Options.NumPredict != 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"stream_tokens":true`...)
	}
	rb.body = append(dst, "}}"...)
}

// modelName is b as a string, without allocating for the built-in models.
func modelName(b []byte) string {
	for _, m := range [...]string{llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2} {
		if string(b) == m {
			return m
		}
	}
	return string(b)
}

// Members of a generate request, as bits of its decoder's seen-set.
const (
	reqModel = 1 << iota
	reqPrompt
	reqStream
	reqContext
	reqOptions
	reqNumPredict
	reqStreamTokens
)

// decode reads rb.body into req without reflection when it is the object
// the client writes — the known members, each at most once, nothing after
// it — exactly as encoding/json would (FuzzGenerateRequest). It reports
// false, leaving req zero, for anything else: members of Ollama's this
// daemon ignores, a null, invalid UTF-8; the caller falls back to
// encoding/json.
func (rb *requestBuf) decode(req *GenerateRequest) bool {
	*req = GenerateRequest{}
	s := jsonwire.Scanner{B: rb.body, Key: rb.key}
	seen := 0
	ok := s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "model":
			rb.str, ok = s.Str(rb.str[:0])
			req.Model = modelName(rb.str)
			return ok && once(&seen, reqModel)
		case "prompt":
			rb.str, ok = s.Str(rb.str[:0])
			req.Prompt = string(rb.str)
			return ok && once(&seen, reqPrompt)
		case "stream":
			var stream bool
			stream, ok = s.Bool()
			req.Stream = &stream
			return ok && once(&seen, reqStream)
		case "context":
			rb.ints, ok = s.Ints(rb.ints[:0])
			req.Context = append(make([]int, 0, len(rb.ints)), rb.ints...)
			return ok && once(&seen, reqContext)
		case "options":
			return once(&seen, reqOptions) && s.Object(func(key []byte) (ok bool) {
				switch string(key) {
				case "num_predict":
					req.Options.NumPredict, ok = s.Int()
					return ok && once(&seen, reqNumPredict)
				case "stream_tokens":
					req.Options.StreamTokens, ok = s.Bool()
					return ok && once(&seen, reqStreamTokens)
				}
				return false
			})
		}
		return false
	})
	rb.key = s.Key
	if !ok || !s.End() {
		*req = GenerateRequest{}
		return false
	}
	return true
}
