package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"llmms/internal/core"
	"llmms/internal/jsonwire"
	"llmms/internal/telemetry"
)

// This file is the one SSE egress of /api/query (DESIGN.md "Serving
// layer"): the only code that knows the frame format
//
//	event: <type>\ndata: <json>\n\n
//
// and the only code that flushes. An orchestrating leader, a cache
// replay and a coalesced follower all write through an sseWriter, under
// one rule: render what is ready into a buffer, hand it to the client
// only when the producer is about to wait. The wait points are the
// producer's own — core.Config.BeforeWait for a leader, having caught up
// with the leader for a follower — so no frame is held while anyone waits,
// and a round's frames cost one write. A terminal frame is not flushed: it
// leaves with the end of the body, so a cache hit is one write in all.

// maxPendingSSE bounds the bytes an sseWriter holds back between flushes:
// a frame that takes the pending bytes past it is handed to the
// ResponseWriter at once (which may buffer or send as it sees fit).
const maxPendingSSE = 32 << 10

// maxPooledSSE is the largest buffer returned to the pool; a larger one
// (a long recorded stream) is left to the collector instead of pinned.
const maxPooledSSE = 64 << 10

// The constant header values /api/query answers with, shared by every
// response: each is full at one value, so an Add copies it before it
// appends, and net/http copies a head when it writes it.
var (
	eventStream     = []string{"text/event-stream"}
	noCache         = []string{"no-cache"}
	xcacheHit       = []string{"HIT"}
	xcacheSemantic  = []string{"SEMANTIC"}
	xcacheCoalesced = []string{"COALESCED"}
	xcacheMiss      = []string{"MISS"}
	retryAfter      = []string{retryAfterSeconds}
)

var ssePool = sync.Pool{New: func() any { return &sseWriter{buf: make([]byte, 0, 8<<10)} }}

// sseWriter renders and writes one /api/query stream. It is used by the
// request's own goroutine only.
type sseWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when w cannot stream
	tel     *telemetry.Telemetry
	sessID  string
	queryID string
	// ids is the request's [sessID, queryID], the head's values: storage
	// the request owns, since the head keeps it.
	ids    []string
	xcache []string // X-Cache value, nil for none

	// buf holds rendered frames; buf[sent:] is not yet handed to w and
	// carries pending frames. A writer that records keeps the bytes it
	// has sent, so buf is the whole stream; otherwise a write empties it.
	buf     []byte
	sent    int
	pending int
	// unflushed says w was handed bytes since its last Flush.
	unflushed bool

	// record keeps every frame in buf and keeps rendering after the
	// client is gone, for a leader whose frames also feed a cache entry
	// or followers. frames counts the frames rendered so far.
	record bool
	frames int
	// answer is the JSON encodeResult rendered at the end of buf, into the
	// result frame that starts at resultAt; nil until then.
	answer   []byte
	resultAt int
	// tee, when set, receives each rendered frame except "result" (the
	// leader's flight followers). It is only set on a recording writer,
	// which never rewrites a frame it has teed — buf only grows past it,
	// and a grown buf leaves the old array as it was — so a tee may keep
	// the frame without copying it for as long as the writer is not
	// reused (finish does not pool a writer whose flight had followers).
	tee func(event string, frame []byte)

	// opened says the response is committed to an event stream, which
	// the first frame does.
	opened bool
	// dead latches the first failed write: nothing more is written, and
	// onDead (when set) has been told once.
	dead   bool
	onDead func()
}

// errClientGone reports a stream whose client stopped accepting writes.
var errClientGone = errors.New("server: sse client gone")

// newSSEWriter prepares a stream for one requester, whose session and
// query ids are ids[0] and ids[1]. Nothing touches w before the first
// frame, so a caller that never renders one may still answer with a plain
// HTTP response.
func newSSEWriter(w http.ResponseWriter, tel *telemetry.Telemetry, ids, xcache []string) *sseWriter {
	sw := ssePool.Get().(*sseWriter)
	*sw = sseWriter{w: w, tel: tel, sessID: ids[0], queryID: ids[1], ids: ids, xcache: xcache, buf: sw.buf[:0]}
	sw.flusher, _ = w.(http.Flusher)
	return sw
}

// close ends the stream's accounting and recycles the writer. ctx is the
// request's: a stream whose client context ended was dropped — the
// browser navigated away or the connection broke before "result".
func (sw *sseWriter) close(ctx context.Context) {
	if sw.opened && ctx.Err() != nil {
		sw.tel.SSEDropped.Inc()
	}
	// Not without a buffer, one finish left to a flight's followers.
	if c := cap(sw.buf); c > 0 && c <= maxPooledSSE {
		*sw = sseWriter{buf: sw.buf[:0]}
		ssePool.Put(sw)
	}
}

// open commits the response to an event stream, with the headers every
// /api/query stream carries. They are assigned, not Set: under the names
// Set canonicalizes them to, over the request's ids and the shared
// constant values, so a head allocates no key and no value of its own.
func (sw *sseWriter) open() {
	h := sw.w.Header()
	h["Content-Type"] = eventStream
	h["Cache-Control"] = noCache
	h["X-Session-Id"] = sw.ids[0:1:1]
	h["X-Query-Id"] = sw.ids[1:2:2]
	if sw.xcache != nil {
		h["X-Cache"] = sw.xcache
	}
	sw.w.WriteHeader(http.StatusOK)
	sw.opened = true
	sw.tel.SSEStreams.Inc()
}

// skip reports that a frame has no consumer: the client is gone and
// nothing records.
func (sw *sseWriter) skip() bool { return sw.dead && !sw.record }

// begin starts a frame and returns where it starts in buf.
func (sw *sseWriter) begin(event string) int {
	start := len(sw.buf)
	sw.buf = append(sw.buf, "event: "...)
	sw.buf = append(sw.buf, event...)
	sw.buf = append(sw.buf, "\ndata: "...)
	return start
}

// end completes the frame begun at start.
func (sw *sseWriter) end(event string, start int) {
	sw.buf = append(sw.buf, "\n\n"...)
	if sw.tee != nil && event != "result" {
		sw.tee(event, sw.buf[start:])
	}
	sw.queued(1)
}

// queued accounts for n frames just appended to buf and keeps the
// pending bytes bounded.
func (sw *sseWriter) queued(n int) {
	if !sw.opened {
		sw.open()
	}
	sw.frames += n
	if sw.dead {
		return
	}
	sw.pending += n
	if len(sw.buf)-sw.sent > maxPendingSSE {
		sw.write()
	}
}

// event renders one orchestration event. A value encoding/json would
// refuse (a NaN score) drops the frame, counted, and the stream goes on.
func (sw *sseWriter) event(ev core.Event) {
	if sw.skip() {
		return
	}
	start := sw.begin(string(ev.Type))
	var ok bool
	if sw.buf, ok = appendEventJSON(sw.buf, &ev); !ok {
		sw.buf = sw.buf[:start]
		sw.tel.SSEEncodeErrors.Inc()
		return
	}
	sw.end(string(ev.Type), start)
}

// replay queues n frames some leader's writer already rendered.
func (sw *sseWriter) replay(frames []byte, n int) {
	if sw.skip() {
		return
	}
	sw.buf = append(sw.buf, frames...)
	sw.queued(n)
}

// recorded returns the cache entry of a recording leader: copies of the
// stream before its result frame and of the answer encodeResult put there.
func (sw *sseWriter) recorded(res core.Result) *cachedAnswer {
	return &cachedAnswer{stream: bytes.Clone(sw.buf[:sw.resultAt]), frames: sw.frames, result: res,
		resultJSON: bytes.Clone(sw.answer)}
}

// encodeResult renders an answer once, straight into the requester's own
// result frame, which result closes, and returns its JSON — storage the
// writer owns, which the cache entry copies (recorded) and followers read
// where it is, like the frames — or nil, taking the frame back, where
// encoding/json refuses res.
func (sw *sseWriter) encodeResult(res *core.Result) []byte {
	sw.openResult()
	n := len(sw.buf)
	b, ok := appendResultJSON(sw.buf, res)
	if !ok {
		sw.buf = b[:sw.resultAt]
		return nil
	}
	sw.buf, sw.answer = b, b[n:len(b):len(b)]
	return sw.answer
}

// openResult begins the requester's own result frame, up to its answer.
// Keys in sorted order: the frame was a marshaled map.
func (sw *sseWriter) openResult() {
	sw.resultAt = sw.begin("result")
	sw.buf = jsonwire.AppendString(append(sw.buf, `{"query_id":`...), sw.queryID)
	sw.buf = append(sw.buf, `,"result":`...)
}

// result ends the stream with the requester's own "result" frame — its
// session and query ids around the shared answer's JSON — handed to the
// connection unflushed: it leaves with the end of the body. It reports
// whether the connection took the frame. A result that does not encode
// (nil JSON) ends the stream with an "error" frame instead, so every
// opened stream gets exactly one terminal frame.
func (sw *sseWriter) result(res *core.Result, resultJSON []byte) bool {
	if resultJSON == nil {
		sw.tel.SSEEncodeErrors.Inc()
		// Not the orchestration's frame: each follower is handed the same
		// result and ends its own stream over it.
		sw.tee = nil
		_, err := json.Marshal(res) // the refusal, in encoding/json's words
		sw.fail("encode_failed", "encode result: "+err.Error())
		return false
	}
	if !sw.skip() {
		if sw.answer == nil {
			sw.openResult()
			sw.buf = append(sw.buf, resultJSON...)
		}
		sw.buf = jsonwire.AppendString(append(sw.buf, `,"session_id":`...), sw.sessID)
		sw.buf = append(sw.buf, '}')
		sw.end("result", sw.resultAt)
	}
	sw.write()
	return !sw.dead
}

// fail ends the stream with an "error" frame carrying the uniform error
// envelope, handed to the connection unflushed, like a result.
func (sw *sseWriter) fail(code, message string) {
	if !sw.skip() {
		start := sw.begin("error")
		sw.buf = append(sw.buf, `{"error":{"code":`...)
		sw.buf = jsonwire.AppendString(sw.buf, code)
		sw.buf = append(sw.buf, `,"message":`...)
		sw.buf = jsonwire.AppendString(sw.buf, message)
		sw.buf = append(sw.buf, "}}"...)
		sw.end("error", start)
	}
	sw.write()
}

// write hands the pending frames to the ResponseWriter. Frames count as
// written once it has accepted their bytes; a refusal means the client is
// gone and ends the stream.
func (sw *sseWriter) write() {
	if sw.pending == 0 {
		return
	}
	_, err := sw.w.Write(sw.buf[sw.sent:])
	if sw.record {
		sw.sent = len(sw.buf)
	} else {
		sw.buf, sw.sent = sw.buf[:0], 0
	}
	if err != nil {
		sw.dead = true
		sw.pending = 0
		sw.tel.SSEEncodeErrors.Inc()
		if sw.onDead != nil {
			sw.onDead()
		}
		return
	}
	sw.tel.SSEFrames.Add(float64(sw.pending))
	sw.pending = 0
	sw.unflushed = true
}

// flush sends everything rendered so far to the client. Callers flush
// when their producer is about to wait, and after a terminal frame.
func (sw *sseWriter) flush() {
	sw.write()
	if sw.dead || !sw.unflushed {
		return
	}
	sw.unflushed = false
	sw.tel.SSEFlushes.Inc()
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

// appendEventJSON appends ev exactly as encoding/json marshals a
// core.Event — field order, omitempty, string escaping, float and time
// formatting — without reflection or boxing. It reports false where
// json.Marshal would return an error (a NaN or infinite float, a time
// RFC 3339 cannot carry). FuzzEventFrame holds the two together.
func appendEventJSON(b []byte, ev *core.Event) ([]byte, bool) {
	if !jsonwire.Finite(ev.Score) || !jsonwire.Finite(ev.QuerySim) || !jsonwire.Finite(ev.InterSim) {
		return b, false
	}
	b = append(b, `{"type":`...)
	b = jsonwire.AppendString(b, string(ev.Type))
	b = append(b, `,"strategy":`...)
	b = jsonwire.AppendString(b, string(ev.Strategy))
	b = append(b, `,"time":`...)
	b, ok := jsonwire.AppendTime(b, ev.Time)
	b = jsonwire.AppendInt(b, `,"round":`, int64(ev.Round))
	b = jsonwire.AppendText(b, `,"model":`, ev.Model)
	b = jsonwire.AppendText(b, `,"text":`, ev.Text)
	b = jsonwire.AppendInt(b, `,"tokens":`, int64(ev.Tokens))
	b = jsonwire.AppendFloat(b, `,"score":`, ev.Score)
	b = jsonwire.AppendFloat(b, `,"query_sim":`, ev.QuerySim)
	b = jsonwire.AppendFloat(b, `,"inter_sim":`, ev.InterSim)
	b = jsonwire.AppendText(b, `,"reason":`, ev.Reason)
	b = jsonwire.AppendInt(b, `,"attempts":`, int64(ev.Attempts))
	b = jsonwire.AppendInt(b, `,"prefetched":`, int64(ev.Prefetched))
	b = jsonwire.AppendInt(b, `,"elapsed_ns":`, int64(ev.Elapsed))
	return append(b, '}'), ok
}

// appendResultJSON appends res exactly as encoding/json marshals a
// core.Result, reporting false where json.Marshal would return an error (a
// NaN or infinite score). FuzzResultFrame holds the two together.
func appendResultJSON(b []byte, res *core.Result) ([]byte, bool) {
	b = jsonwire.AppendString(append(b, `{"strategy":`...), string(res.Strategy))
	b = jsonwire.AppendString(append(b, `,"answer":`...), res.Answer)
	b = jsonwire.AppendString(append(b, `,"model":`...), res.Model)
	b = strconv.AppendInt(append(b, `,"tokens_used":`...), int64(res.TokensUsed), 10)
	b = strconv.AppendInt(append(b, `,"rounds":`...), int64(res.Rounds), 10)
	b = strconv.AppendBool(append(b, `,"early_exit":`...), res.EarlyExit)
	b = append(b, `,"outcomes":`...)
	if res.Outcomes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range res.Outcomes {
			if i > 0 {
				b = append(b, ',')
			}
			o := &res.Outcomes[i]
			if !jsonwire.Finite(o.Score) || !jsonwire.Finite(o.QuerySim) || !jsonwire.Finite(o.InterSim) {
				return b, false
			}
			b = jsonwire.AppendString(append(b, `{"model":`...), o.Model)
			b = jsonwire.AppendString(append(b, `,"response":`...), o.Response)
			b = strconv.AppendInt(append(b, `,"tokens":`...), int64(o.Tokens), 10)
			b = jsonwire.AppendNumber(append(b, `,"score":`...), o.Score)
			b = jsonwire.AppendNumber(append(b, `,"query_sim":`...), o.QuerySim)
			b = jsonwire.AppendNumber(append(b, `,"inter_sim":`...), o.InterSim)
			b = strconv.AppendInt(append(b, `,"pulls":`...), int64(o.Pulls), 10)
			b = strconv.AppendBool(append(b, `,"pruned":`...), o.Pruned)
			b = strconv.AppendBool(append(b, `,"done":`...), o.Done)
			b = jsonwire.AppendText(b, `,"done_reason":`, o.DoneReason)
			if o.Failed {
				b = append(b, `,"failed":true`...)
			}
			b = jsonwire.AppendText(b, `,"error":`, o.Error)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"elapsed_ns":`...), int64(res.Elapsed), 10)
	return append(b, '}'), true
}
