package modeld

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"llmms/internal/llm"
)

// This file is the NDJSON token-line framing shared by both ends of the
// modeld hop: the daemon's line writer (one line and one Flush per drain
// of the engine's channel, for /api/generate and /api/chat alike) and
// the client's decoder for the lines a stream_tokens session receives.
//
// A token line carries a batch of tokens — as many as the engine had
// decoded when the writer came back for more, so one per line when
// decode is the slow side and a whole answer when the writer is:
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
	chat    bool         // /api/chat framing: text rides in message.content
	echo    bool         // stream_tokens: tokens, token_ends, response_raw

	prefix []byte // `{"model":"<model>","created_at":"`, fixed per stream
	batch  llm.TokenBatch
	pend   []byte // without echo: text not yet written (ends mid-character)
	out    []byte
	lines  int // token lines written
}

var lineWriterPool = sync.Pool{New: func() any { return new(lineWriter) }}

// newLineWriter borrows a writer for one response; release returns it.
func newLineWriter(w http.ResponseWriter, model string, chat, echo bool) *lineWriter {
	lw := lineWriterPool.Get().(*lineWriter)
	lw.w, lw.chat, lw.echo, lw.lines = w, chat, echo, 0
	lw.flusher, _ = w.(http.Flusher)
	lw.prefix = appendJSONString(append(lw.prefix[:0], `{"model":`...), []byte(model))
	lw.prefix = append(lw.prefix, `,"created_at":"`...)
	lw.pend = lw.pend[:0]
	return lw
}

func (lw *lineWriter) release() {
	lw.w, lw.flusher = nil, nil
	lineWriterPool.Put(lw)
}

// stream writes the generation arriving on chunks: after each blocking
// receive it takes whatever else the engine has already decoded and
// writes one line and one Flush for the lot, so a token leaves the
// daemon the moment it is decoded and a burst costs one write. done
// builds the terminal line from the final chunk and, without echo, the
// held-back tail that never completed a character. A failed write means
// the client went away; the request context stops the generation.
func (lw *lineWriter) stream(chunks <-chan llm.Chunk, done func(final llm.Chunk, tail string) any) {
	lw.w.Header().Set("Content-Type", "application/x-ndjson")
	lw.w.WriteHeader(http.StatusOK)
	for more := true; more; {
		var final llm.Chunk
		final, more = lw.batch.Fill(chunks)
		if len(lw.batch.IDs) > 0 && !lw.writeTokens() {
			return
		}
		if final.Done {
			if err := json.NewEncoder(lw.w).Encode(done(final, string(lw.pend))); err != nil {
				return
			}
		}
		if lw.flusher != nil {
			lw.flusher.Flush()
		}
	}
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

// appendTokenLine appends the NDJSON line for one batch of tokens. ids
// and ends are written only on echo lines.
func (lw *lineWriter) appendTokenLine(dst []byte, at time.Time, text []byte, ids, ends []int) []byte {
	dst = append(dst, lw.prefix...)
	dst = at.UTC().AppendFormat(dst, time.RFC3339Nano)
	if lw.chat {
		dst = append(dst, `","message":{"role":"assistant","content":`...)
		dst = appendJSONString(dst, text)
		return append(dst, "},\"done\":false}\n"...)
	}
	dst = append(dst, `","response":`...)
	dst = appendJSONString(dst, text)
	dst = append(dst, `,"done":false`...)
	if lw.echo {
		dst = appendInts(append(dst, `,"tokens":`...), ids)
		if len(ids) > 1 {
			dst = appendInts(append(dst, `,"token_ends":`...), ends)
		}
		if !utf8.Valid(text) {
			dst = append(dst, `,"response_raw":"`...)
			n := len(dst)
			dst = append(dst, make([]byte, base64.StdEncoding.EncodedLen(len(text)))...)
			base64.StdEncoding.Encode(dst[n:], text)
			dst = append(dst, '"')
		}
	}
	return append(dst, "}\n"...)
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

func appendInts(dst []byte, vs []int) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. Like
// encoding/json it writes invalid UTF-8 as U+FFFD; unlike it, it leaves
// HTML characters alone.
func appendJSONString(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + 1
			}
			i += size
			continue
		}
		if c >= 0x20 && c != '"' && c != '\\' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// tokenLine is one decoded token line of a stream_tokens session, in
// storage the pump reuses line after line and stream after stream: text
// is the exact bytes of the line's tokens (response_raw when the line
// has it, else response).
type tokenLine struct {
	text []byte // aliases raw or response
	ids  []int
	ends []int // empty when the line has no token_ends

	response, raw, scratch []byte
}

var tokenLinePool = sync.Pool{New: func() any { return new(tokenLine) }}

// Keys of a token line, as bits of the decoder's seen-set.
const (
	keyModel = 1 << iota
	keyCreatedAt
	keyResponse
	keyDone
	keyTokens
	keyTokenEnds
	keyResponseRaw
)

// decode reads line into l without reflection when it is a token line of
// the shape the daemon writes: one flat JSON object of the known keys,
// each at most once, "done" false. It reports false for anything else —
// the done line, a foreign daemon's extra fields, escapes it does not
// read — and the caller falls back to encoding/json, which remains the
// reference: whenever decode accepts a line, it fills l exactly as
// fromResponse would from the unmarshalled line (FuzzStreamLine).
func (l *tokenLine) decode(line []byte) bool {
	l.ids, l.ends, l.response, l.raw = l.ids[:0], l.ends[:0], l.response[:0], l.raw[:0]
	s := lineScanner{b: line}
	if !s.lit('{') {
		return false
	}
	seen, ok := 0, true
	for first := true; ; first = false {
		if s.lit('}') {
			break
		}
		if !first && !s.lit(',') {
			return false
		}
		if l.scratch, ok = s.str(l.scratch[:0]); !ok || !s.lit(':') {
			return false
		}
		key := 0
		switch string(l.scratch) {
		case "model":
			key = keyModel
			l.scratch, ok = s.str(l.scratch[:0])
		case "created_at":
			key = keyCreatedAt
			l.scratch, ok = s.str(l.scratch[:0])
		case "response":
			key = keyResponse
			l.response, ok = s.str(l.response)
		case "done":
			key = keyDone
			ok = s.word("false")
		case "tokens":
			key = keyTokens
			l.ids, ok = s.ints(l.ids)
		case "token_ends":
			key = keyTokenEnds
			l.ends, ok = s.ints(l.ends)
		case "response_raw":
			key = keyResponseRaw
			if l.scratch, ok = s.str(l.scratch[:0]); ok {
				l.raw = append(l.raw, make([]byte, base64.StdEncoding.DecodedLen(len(l.scratch)))...)
				n, err := base64.StdEncoding.Decode(l.raw, l.scratch)
				l.raw, ok = l.raw[:n], err == nil
			}
		}
		if !ok || key == 0 || seen&key != 0 {
			return false
		}
		seen |= key
	}
	if s.ws(); s.i != len(s.b) {
		return false
	}
	l.text = l.response
	if seen&keyResponseRaw != 0 {
		l.text = l.raw
	}
	return true
}

// fromResponse fills l from a line that went through encoding/json.
func (l *tokenLine) fromResponse(gr *GenerateResponse) {
	l.response = append(l.response[:0], gr.Response...)
	l.text = l.response
	if gr.ResponseRaw != nil {
		l.text = gr.ResponseRaw
	}
	l.ids = append(l.ids[:0], gr.Tokens...)
	l.ends = append(l.ends[:0], gr.TokenEnds...)
}

// lineScanner reads the JSON subset tokenLine.decode accepts. Every
// method reports false on input it does not read, never an error: the
// caller's fallback decides whether the line is actually malformed.
type lineScanner struct {
	b []byte
	i int
}

func (s *lineScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit skips white space and consumes c if it is next.
func (s *lineScanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *lineScanner) word(w string) bool {
	s.ws()
	if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
		s.i += len(w)
		return true
	}
	return false
}

// str appends the next JSON string, unescaped, to dst. It declines
// surrogate escapes and anything that is not valid UTF-8, where
// encoding/json would substitute U+FFFD.
func (s *lineScanner) str(dst []byte) ([]byte, bool) {
	if !s.lit('"') {
		return dst, false
	}
	from := len(dst)
	for s.i < len(s.b) {
		c := s.b[s.i]
		s.i++
		switch {
		case c == '"':
			return dst, utf8.Valid(dst[from:])
		case c < 0x20:
			return dst, false
		case c != '\\':
			dst = append(dst, c)
			continue
		}
		if s.i >= len(s.b) {
			return dst, false
		}
		c = s.b[s.i]
		s.i++
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
			if len(s.b)-s.i < 4 {
				return dst, false
			}
			var r rune
			for _, h := range s.b[s.i : s.i+4] {
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
			s.i += 4
			dst = utf8.AppendRune(dst, r)
		default:
			return dst, false
		}
	}
	return dst, false
}

// ints appends the next JSON array of integers to dst.
func (s *lineScanner) ints(dst []int) ([]int, bool) {
	if !s.lit('[') {
		return dst, false
	}
	if s.lit(']') {
		return dst, true
	}
	for {
		s.ws()
		neg := s.i < len(s.b) && s.b[s.i] == '-'
		if neg {
			s.i++
		}
		start, v := s.i, 0
		for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
			v = v*10 + int(s.b[s.i]-'0')
			s.i++
		}
		// One to eighteen digits (no overflow), no leading zero.
		if n := s.i - start; n == 0 || n > 18 || (n > 1 && s.b[start] == '0') {
			return dst, false
		}
		if neg {
			v = -v
		}
		dst = append(dst, v)
		if s.lit(']') {
			return dst, true
		}
		if !s.lit(',') {
			return dst, false
		}
	}
}
