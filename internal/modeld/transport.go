package modeld

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The hop transport's limits, net/http's tuning for this hop before it:
// an idle connection per concurrent model stream to one daemon, closed
// after idleTimeout unused.
const (
	maxIdlePerHost = 32
	idleTimeout    = 90 * time.Second
	dialTimeout    = 10 * time.Second
	tcpKeepAlive   = 30 * time.Second
)

// hopTransport is the default client's transport: HTTP/1.1 over plain TCP
// with a per-host pool of idle keep-alive connections. Its exchange writes a
// request in one write on the calling goroutine and reads the reply's head
// there, in place when parseHead takes it; hopRoute is its one caller. An
// idle connection holds no goroutine, only a stopped timer, so a daemon that
// closed one is found out at its next use: a reused connection that fails
// before any byte of a reply is redialled once, the request resent from the
// bytes in hand. It speaks plain http only and reads no proxy variables.
type hopTransport struct {
	// dial opens a connection; tests count or script connections here.
	dial func(ctx context.Context, network, addr string) (net.Conn, error)

	mu   sync.Mutex
	idle map[string][]*hopConn // by host:port, most recently used last
}

func newHopTransport() *hopTransport {
	d := &net.Dialer{Timeout: dialTimeout, KeepAlive: tcpKeepAlive}
	return &hopTransport{dial: d.DialContext, idle: map[string][]*hopConn{}}
}

// hopConn is one connection to a daemon, owned by one request at a time or
// by the idle pool.
type hopConn struct {
	t    *hopTransport
	addr string
	conn net.Conn
	br   *bufio.Reader // reads conn through Read; from brPool, back there at close
	// noWait: Read takes only what has arrived (readNoWait), through raw,
	// made on the first such read.
	noWait bool
	raw    *rawRead
	// expire sets a past deadline on conn, failing whatever is blocked on
	// it: it runs when the owning request's context ends. Bound once.
	expire func()
	// timer closes the connection once it has been idle for idleTimeout;
	// idleAt is when it was pooled. Both are guarded by t.mu.
	timer  *time.Timer
	idleAt time.Time
	// owes: the connection was pooled before its reply ended (hopBody.owe);
	// tail reads the rest of that reply, which idleConn discards before it
	// hands the connection out. Guarded by t.mu while pooled.
	owes bool
	tail hopBody
}

// brPool holds read buffers: a dial takes one; the connection's owner puts
// it back, emptied, when it closes the connection.
var brPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// errNotHTTP is why New gives a client no hop route: the hop transport has
// no TLS and no proxy support, which a caller supplies with its own
// http.Client.
var errNotHTTP = errors.New("modeld: the default transport speaks plain http only; pass an http.Client with WithHTTPClient")

// hopRoute writes a client's generation requests as net/http writes the
// one roundTripRoute builds: prefix (request line and Host, built by New),
// the body's framing, the fields, then the pooled body — with a
// Content-Length, or, for a full-duplex request (msg.duplex), as the first
// chunk of a chunked body the client ends later (hopBody.endRequest), as
// net/http writes a body it reads from a pipe. version is the GET of the
// daemon's /api/version.
type hopRoute struct {
	t                     *hopTransport
	addr, prefix, version string
}

func (r *hopRoute) exchange(ctx context.Context, msg *requestBuf, traceparent string, lr *lineReader) error {
	w := append(msg.wire[:0], r.prefix...)
	if msg.duplex {
		w = append(w, "Transfer-Encoding: chunked\r\n"...)
	} else {
		w = strconv.AppendInt(append(w, "Content-Length: "...), int64(len(msg.body)), 10)
		w = append(w, "\r\n"...)
	}
	w = append(w, "Content-Type: application/json\r\n"...)
	if traceparent != "" {
		w = append(append(append(w, "Traceparent: "...), traceparent...), "\r\n"...)
	}
	w = append(w, "\r\n"...)
	if msg.duplex {
		w = append(strconv.AppendInt(w, int64(len(msg.body)+1), 16), "\r\n"...)
		w = append(append(w, msg.body...), "\n\r\n"...)
	} else {
		w = append(w, msg.body...)
	}
	msg.wire = w
	b := &lr.hop
	if err := r.t.exchange(ctx, r.addr, msg.wire, b); err != nil {
		return err
	}
	b.duplex, b.open = msg.duplex, msg.duplex
	if b.code != http.StatusOK {
		err := decodeError(b.status, b)
		if msg.duplex && b.code == http.StatusLengthRequired {
			err = errNoDuplex
		}
		b.Close()
		return err
	}
	lr.body, lr.ctx = b, ctx
	return nil
}

// errNoDuplex is a daemon's refusal of a full-duplex request: it answers
// 411 when its connection cannot read a chunked body while it replies.
var errNoDuplex = errors.New("modeld: the daemon cannot take a full-duplex request")

// takesStop asks the daemon's /api/version whether it stops a generation on
// stopLine, and reports the dials it took. A reply without the field, or
// one that is not the version object, says no; only a failed request is an
// error.
func (r *hopRoute) takesStop(ctx context.Context) (ok bool, dials int, err error) {
	var b hopBody
	if err := r.t.exchange(ctx, r.addr, []byte(r.version), &b); err != nil {
		return false, b.dials, err
	}
	defer b.Close() // a body not read to its end closes the connection
	var v versionBody
	body, err := io.ReadAll(io.LimitReader(&b, maxPooledBody))
	ok = err == nil && b.code == http.StatusOK && json.Unmarshal(body, &v) == nil && v.StopLine == stopLine
	return ok, b.dials, nil
}

// hostPort is the address a request to u dials.
func hostPort(u *url.URL) string { return net.JoinHostPort(u.Hostname(), cmp.Or(u.Port(), "80")) }

// exchange sends msg, a whole request, to addr and reads the reply's head
// into b, which then reads the body; b.pc is nil when there is none.
func (t *hopTransport) exchange(ctx context.Context, addr string, msg []byte, b *hopBody) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	pc := t.idleConn(addr)
	reused := pc != nil
	for {
		if pc == nil {
			conn, err := t.dial(ctx, "tcp", addr)
			if err != nil {
				if ctx.Err() != nil {
					return context.Cause(ctx)
				}
				return err
			}
			b.dials++
			pc = &hopConn{t: t, addr: addr, conn: conn, br: brPool.Get().(*bufio.Reader)}
			pc.br.Reset(pc)
			pc.expire = pc.expireNow
		}
		replied, err := pc.exchange(ctx, msg, b)
		if err == nil {
			return nil
		}
		pc.close()
		switch {
		case ctx.Err() != nil:
			return context.Cause(ctx)
		case !reused || replied:
			return err
		}
		// The daemon closed the idle connection under us: once more on a
		// fresh one.
		pc, reused = nil, false
	}
}

// exchange sends msg and reads the reply's head. It reports whether a byte
// of a reply arrived, which rules out resending. Its one context.AfterFunc
// is stopped when the reply lets the connection go.
func (pc *hopConn) exchange(ctx context.Context, msg []byte, b *hopBody) (replied bool, err error) {
	stop := context.AfterFunc(ctx, pc.expire)
	defer func() {
		if err != nil {
			stop()
		}
	}()
	if _, err = pc.conn.Write(msg); err != nil {
		return false, err
	}
	if _, err = pc.br.Peek(1); err != nil {
		return false, err
	}
	if n := b.parseHead(pc.br); n > 0 {
		pc.br.Discard(n)
	} else if resp, err := http.ReadResponse(pc.br, nil); err != nil {
		return true, err
	} else {
		b.code, b.status, b.n, b.chunked, b.close, b.src = resp.StatusCode, resp.Status, -1, false, resp.Close, resp.Body
	}
	if b.code < http.StatusOK {
		// The daemon sends no informational replies; one that does is not
		// followed any further.
		return true, fmt.Errorf("modeld: unexpected %s", b.status)
	}
	b.pc, b.ctx, b.stop, b.keep = pc, ctx, stop, !b.close
	if b.n == 0 || b.src == http.NoBody {
		b.pc, b.err = nil, io.EOF
		pc.release(stop, b.keep)
	}
	return true, nil
}

// expireNow is hopConn.expire.
func (pc *hopConn) expireNow() { pc.conn.SetDeadline(time.Unix(1, 0)) }

// close closes the connection and pools its read buffer, emptied: a later
// connection never reads a byte of this one.
func (pc *hopConn) close() {
	pc.conn.Close()
	if pc.br != nil {
		pc.br.Reset(nil)
		brPool.Put(pc.br)
		pc.br = nil
	}
}

// errWouldBlock is what a no-wait read reports once nothing more arrived.
var errWouldBlock = errors.New("modeld: read would block")

// Read is the connection as pc.br reads it: a blocking read, or while
// noWait is set one that does not wait.
func (pc *hopConn) Read(p []byte) (int, error) {
	if !pc.noWait {
		return pc.conn.Read(p)
	}
	if pc.raw == nil {
		pc.raw = newRawRead(pc.conn)
	}
	return pc.raw.now(p)
}

// release hands the connection back at the end of a reply: to the idle
// pool when the reply allowed it (keep) and the request's context had not
// ended — stop stops its AfterFunc before it fires — and closed otherwise.
func (pc *hopConn) release(stop func() bool, keep bool) {
	pc.noWait = false
	if !stop() || !keep || pc.br.Buffered() > 0 && !pc.owes {
		pc.close()
		return
	}
	t := pc.t
	t.mu.Lock()
	defer t.mu.Unlock()
	idle := t.idle[pc.addr]
	if len(idle) >= maxIdlePerHost {
		pc.close()
		return
	}
	pc.conn.SetReadDeadline(time.Time{})
	pc.idleAt = time.Now()
	if pc.timer == nil {
		pc.timer = time.AfterFunc(idleTimeout, pc.closeIdle)
	} else {
		pc.timer.Reset(idleTimeout)
	}
	t.idle[pc.addr] = append(idle, pc)
}

// closeIdle is the idle timer's: it closes the connection if it is still
// in the pool and has been there for idleTimeout.
func (pc *hopConn) closeIdle() {
	t := pc.t
	t.mu.Lock()
	idle := t.idle[pc.addr]
	i := slices.Index(idle, pc)
	if i < 0 || time.Since(pc.idleAt) < idleTimeout {
		t.mu.Unlock()
		return
	}
	t.idle[pc.addr] = slices.Delete(idle, i, i+1)
	t.mu.Unlock()
	pc.close()
}

// idleConn takes the most recently used idle connection to addr whose
// reply has ended, or returns nil. A connection that still owes the tail
// of a reply (hopBody.owe) is handed out once what has arrived of it
// reaches its end, read without waiting and discarded; until then it is
// skipped, so that no request waits on another's tail, and one whose tail
// breaks is closed.
func (t *hopTransport) idleConn(addr string) *hopConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	idle := t.idle[addr]
	defer func() { t.idle[addr] = idle }()
	for i := len(idle) - 1; i >= 0; i-- {
		pc := idle[i]
		fresh := time.Since(pc.idleAt) < idleTimeout
		if fresh && pc.owes {
			switch pc.readTail() {
			case errWouldBlock:
				continue
			case nil:
			default:
				fresh = false
			}
		}
		idle = slices.Delete(idle, i, i+1)
		pc.timer.Stop()
		if fresh {
			return pc
		}
		pc.close()
	}
	return nil
}

// readTail reads what has arrived of the reply the connection owes and
// discards it: nil once the reply ended with nothing after it,
// errWouldBlock while the rest is still to arrive, and otherwise why the
// connection cannot be used again.
func (pc *hopConn) readTail() error {
	pc.noWait = true
	_, err := io.Copy(io.Discard, (*tailReader)(&pc.tail))
	pc.noWait = false
	switch {
	case err != nil:
		return err
	case pc.br.Buffered() > 0:
		return errors.New("modeld: bytes after a reply")
	}
	pc.owes = false
	return nil
}

// tailReader reads an owed reply's body through its framing.
type tailReader hopBody

func (r *tailReader) Read(p []byte) (int, error) { return (*hopBody)(r).read(p) }

// hopBody is a reply: its head, then its body framed as net/http frames it.
// The connection is pooled when the body ends cleanly and closed when it
// breaks, the request's context ends or the body is closed early; a
// full-duplex request's reply let go before its end is pooled owing the
// rest (owe). It has one user at a time: a blocked Read is ended by the
// request's context or clientStream.abort, not by Close.
type hopBody struct {
	code   int
	status string
	// n is what is left of a Content-Length body; a chunked one (n < 0) is
	// read by readChunked, and src is net/http's body for a head parseHead
	// declined.
	n       int64
	chunked bool
	close   bool // the daemon said Connection: close
	src     io.Reader
	chunk   chunkState

	ctx  context.Context
	stop func() bool // the exchange's context.AfterFunc
	keep bool
	pc   *hopConn // nil once the connection is released or closed
	err  error    // what Read returns once pc is nil
	// duplex: the request's body is chunked and open until endRequest.
	duplex, open bool
	dials        int // connections the exchange dialled
}

// chunkState is where a chunked body's read stands, as net/http's
// chunkedReader keeps it: n bytes of the current chunk unread, its CRLF
// next (crlf), the framing's overhead so far (excess), and, once the last
// chunk was read, the trailer next (trailer). err ends the body.
type chunkState struct {
	n       uint64
	crlf    bool
	trailer bool
	excess  int64
	two     [2]byte
	err     error
}

var errBodyClosed = errors.New("http: read on closed response body")

// Read reads the body. A read that would wait while the connection reads
// without waiting (readNoWait) returns errWouldBlock having lost nothing:
// the body reads on from where it stood, is closed, or is let go owing the
// rest (owe).
func (b *hopBody) Read(p []byte) (int, error) {
	if b.pc == nil {
		return 0, b.err
	}
	n, err := b.read(p)
	switch {
	case err == nil, err == errWouldBlock:
		return n, err
	case err == io.EOF:
	case b.ctx.Err() != nil:
		err = context.Cause(b.ctx)
	case errors.Is(err, net.ErrClosed):
		err = context.Canceled // clientStream.abort closed it
	}
	pc := b.pc
	b.pc, b.err = nil, err
	if err == io.EOF {
		// A request whose body is still open cannot be followed by another.
		pc.release(b.stop, b.keep && !b.open)
	} else {
		b.stop()
		pc.close()
	}
	return n, err
}

// read is one read of the body through its framing; a chunked body ends
// with its trailer, read as net/http reads it.
func (b *hopBody) read(p []byte) (int, error) {
	br := b.pc.br
	if b.src != nil {
		n, err := b.src.Read(p)
		if err == io.EOF && b.chunked {
			if terr := readTrailer(br); terr != nil {
				err = terr
			}
		}
		return n, err
	}
	if b.chunked {
		return b.readChunked(br, p)
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := br.Read(p)
	if b.n -= int64(n); b.n == 0 {
		err = io.EOF
	} else if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// readChunked reads a chunked body as net/http's chunkedReader does
// (net/http/internal/chunked.go), byte for byte and error for error
// (FuzzHopHead), then its trailer. Where that reader would wait on a
// connection that reads without waiting, it returns errWouldBlock instead
// and consumes nothing it has not accounted for, so the next read takes
// up where this one stopped.
func (b *hopBody) readChunked(br *bufio.Reader, p []byte) (n int, err error) {
	cs := &b.chunk
	for cs.err == nil && !cs.trailer {
		if cs.crlf {
			if n > 0 && br.Buffered() < 2 {
				break
			}
			if b.wouldWait(br, 2) {
				return n, errWouldBlock
			}
			if _, cs.err = io.ReadFull(br, cs.two[:]); cs.err == nil {
				if string(cs.two[:]) != "\r\n" {
					cs.err = errors.New("malformed chunked encoding")
					break
				}
			} else {
				if cs.err == io.EOF {
					cs.err = io.ErrUnexpectedEOF
				}
				break
			}
			cs.crlf = false
		}
		if cs.n == 0 {
			if n > 0 && !lineBuffered(br) {
				break
			}
			if b.lineWouldWait(br) {
				return n, errWouldBlock
			}
			cs.begin(br)
			continue
		}
		if len(p) == 0 {
			break
		}
		rbuf := p
		if uint64(len(rbuf)) > cs.n {
			rbuf = rbuf[:cs.n]
		}
		n0, rerr := br.Read(rbuf)
		n += n0
		p = p[n0:]
		cs.n -= uint64(n0)
		switch {
		case rerr == errWouldBlock:
			return n, rerr
		case rerr == io.EOF:
			cs.err = io.ErrUnexpectedEOF
		case rerr != nil:
			cs.err = rerr
		case cs.n == 0:
			cs.crlf = true
		}
	}
	if cs.err != nil {
		return n, cs.err
	}
	if !cs.trailer {
		return n, nil
	}
	if err := readTrailer(br); err != nil {
		if err != errWouldBlock {
			cs.err = err
		}
		return n, err
	}
	cs.err = io.EOF
	return n, io.EOF
}

// begin reads a chunk's size line, as chunkedReader.beginChunk does.
func (cs *chunkState) begin(br *bufio.Reader) {
	line, err := br.ReadSlice('\n')
	switch {
	case err == io.EOF:
		err = io.ErrUnexpectedEOF
	case err == bufio.ErrBufferFull, err == nil && len(line) >= maxChunkLine:
		err = errChunkLineTooLong
	}
	if cs.err = err; err != nil {
		return
	}
	cs.excess += int64(len(line)) + 2
	line = bytes.TrimRight(line, " \t\n\r")
	line, _, _ = bytes.Cut(line, semicolon)
	if cs.n, cs.err = parseHexUint(line); cs.err != nil {
		return
	}
	cs.excess = max(cs.excess-16-2*int64(cs.n), 0)
	if cs.trailer = cs.n == 0; !cs.trailer && cs.excess > 16*1024 {
		cs.err = errors.New("chunked encoding contains too much non-data")
	}
}

// maxChunkLine bounds a chunk's size line, as net/http bounds it.
const maxChunkLine = 4096

var (
	errChunkLineTooLong = errors.New("header line too long")
	semicolon           = []byte(";")
)

// parseHexUint is net/http's reading of a chunk size.
func parseHexUint(v []byte) (n uint64, err error) {
	if len(v) == 0 {
		return 0, errors.New("empty hex number for chunk length")
	}
	for i, c := range v {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, errors.New("invalid byte in chunk length")
		}
		if i == 16 {
			return 0, errors.New("http chunk length too large")
		}
		n = n<<4 | uint64(c)
	}
	return n, nil
}

// lineBuffered reports whether br holds a whole line.
func lineBuffered(br *bufio.Reader) bool {
	buf, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

// wouldWait reports whether reading k bytes would wait on a connection
// that reads without waiting: they have not all arrived. It consumes
// nothing.
func (b *hopBody) wouldWait(br *bufio.Reader, k int) bool {
	if !b.pc.noWait {
		return false
	}
	_, err := br.Peek(k)
	return err == errWouldBlock
}

// lineWouldWait is wouldWait for a chunk's size line: true when neither
// its newline nor a full buffer has arrived.
func (b *hopBody) lineWouldWait(br *bufio.Reader) bool {
	for b.pc.noWait && !lineBuffered(br) && br.Buffered() < br.Size() {
		if _, err := br.Peek(br.Buffered() + 1); err != nil {
			return err == errWouldBlock
		}
	}
	return false
}

// endRequest ends a full-duplex request's body, after the stop line when
// stop is set, in one write; it reports whether it wrote. A failed write
// keeps the connection from being reused.
func (b *hopBody) endRequest(stop bool) bool {
	if !b.open || b.pc == nil {
		return false
	}
	b.open = false
	end := endChunk
	if stop {
		end = stopChunk
	}
	if _, err := b.pc.conn.Write(end); err != nil {
		b.keep = false
		return false
	}
	return true
}

// The end of a chunked request body, and the stop line as a chunk before it.
var endChunk, stopChunk = []byte("0\r\n\r\n"), []byte(fmt.Sprintf("%x\r\n%s\n\r\n0\r\n\r\n", len(stopLine)+1, stopLine))

// owe lets go of a full-duplex request's reply before its end: it ends the
// request's body, after the stop line unless the done line was read, and
// pools the connection owing the rest of the reply, which idleConn reads
// before the connection's next use. It reports whether it wrote the stop
// line, and whether it let the connection go; one it could not (not a
// full-duplex request, or a reply not framed by readChunked) is the
// caller's to close.
func (b *hopBody) owe(done bool) (stopped, owed bool) {
	pc := b.pc
	if pc == nil || !b.duplex || !b.keep || !b.chunked || b.src != nil || b.chunk.err != nil {
		return false, false
	}
	if stopped = b.endRequest(!done); !b.keep {
		return false, false // the write failed
	}
	b.pc, b.err = nil, errBodyClosed
	pc.tail, pc.owes = *b, true
	pc.tail.pc, pc.tail.ctx, pc.tail.stop = pc, nil, nil
	pc.release(b.stop, true)
	return stopped, true
}

var (
	crlf, colonSpace, endOfHead = []byte("\r\n"), []byte(": "), []byte("\r\n\r\n")
	errTrailerEOF               = errors.New("http: unexpected EOF reading trailer")
	headFields                  = []string{"Content-Type", "Date", "Content-Length", "Transfer-Encoding", "Connection"}
	unprintable                 = func(r rune) bool { return r < ' ' || r > '~' }
)

// readTrailer reads what follows a chunked body's last chunk: CRLF, or
// trailer fields (dropped) that end within br's buffer. It returns
// errWouldBlock, having consumed nothing, when they have not all arrived
// on a connection that reads without waiting.
func readTrailer(br *bufio.Reader) error {
	if buf, err := br.Peek(2); string(buf) == "\r\n" {
		br.Discard(2)
		return nil
	} else if err == errWouldBlock {
		return err
	} else if len(buf) < 2 {
		return errTrailerEOF
	}
	for n := len(endOfHead); ; n++ {
		buf, err := br.Peek(n)
		if bytes.HasSuffix(buf, endOfHead) {
			break
		}
		if err == errWouldBlock {
			return err
		}
		if err != nil {
			return errors.New("http: suspiciously long trailer after chunked body")
		}
	}
	if _, err := textproto.NewReader(br).ReadMIMEHeader(); err != nil {
		if err == io.EOF {
			return errTrailerEOF
		}
		return err
	}
	return nil
}

// parseHead parses the head at the front of br in place and returns its
// length when it has the shape a Go daemon or Ollama sends: "HTTP/1.1 ", a
// code from 200 to 599 with a body, then headFields, each at most once,
// with one of Content-Length and Transfer-Encoding: chunked and Connection:
// close or keep-alive, as "Name: value" in printable ASCII, no space at
// either end, each line ending in CRLF. Otherwise it returns 0 having
// consumed nothing, and http.ReadResponse reads the same bytes
// (FuzzHopHead holds the two to each other).
func (b *hopBody) parseHead(br *bufio.Reader) int {
	var head []byte
	for head == nil {
		buf, _ := br.Peek(br.Buffered())
		if i := bytes.Index(buf, endOfHead); i >= 0 {
			head = buf[:i+len(endOfHead)]
		} else if _, err := br.Peek(len(buf) + 1); err != nil || len(buf) == br.Size() {
			return 0 // the connection failed first, or the head does not fit br
		}
	}
	status, rest, _ := bytes.Cut(head, crlf)
	if len(status) < 13 || string(status[:9]) != "HTTP/1.1 " || status[12] != ' ' || bytes.ContainsFunc(status[13:], unprintable) {
		return 0
	}
	code, err := strconv.Atoi(string(status[9:12]))
	if err != nil || code < 200 || code > 599 || code == http.StatusNoContent || code == http.StatusNotModified {
		return 0
	}
	b.code, b.n, b.chunked, b.close = code, -1, false, false
	seen := 0
	for len(rest) > len(crlf) {
		var line []byte
		line, rest, _ = bytes.Cut(rest, crlf)
		name, value, _ := bytes.Cut(line, colonSpace)
		field := slices.Index(headFields, string(name))
		if field < 0 || !once(&seen, 1<<field) || len(value) == 0 || value[0] == ' ' || value[len(value)-1] == ' ' ||
			bytes.ContainsFunc(value, unprintable) {
			return 0
		}
		switch v := string(value); string(name) {
		case "Content-Length":
			n, err := strconv.ParseUint(v, 10, 63)
			if b.n = int64(n); err != nil {
				return 0
			}
		case "Transfer-Encoding":
			if b.chunked = v == "chunked"; !b.chunked {
				return 0
			}
		case "Connection":
			if b.close = v == "close"; !b.close && v != "keep-alive" {
				return 0
			}
		}
	}
	if b.chunked == (b.n >= 0) {
		return 0
	}
	b.status = "200 OK"
	if string(status[9:]) != b.status {
		b.status = string(status[9:])
	}
	b.src, b.chunk = nil, chunkState{}
	return len(head)
}

// readNoWait reads body without waiting on the daemon: what has arrived,
// then errWouldBlock, after which the body reads on where it stood. Only
// the hop's own body can tell what has arrived; any other says
// errWouldBlock at once.
func readNoWait(body io.Reader, p []byte) (int, error) {
	b, ok := body.(*hopBody)
	if !ok || b.pc == nil {
		return 0, errWouldBlock
	}
	pc := b.pc
	pc.noWait = true
	n, err := b.Read(p)
	pc.noWait = false
	return n, err
}

// setReadDeadline bounds body's reads by t (none, when zero), reporting
// whether it could: only the hop's body can, and an ended request keeps its.
func setReadDeadline(body io.Reader, t time.Time) bool {
	b, ok := body.(*hopBody)
	if !ok || b.pc == nil {
		return false
	}
	b.pc.conn.SetReadDeadline(t)
	if b.ctx.Err() != nil {
		b.pc.expire()
	}
	return true
}

// Close closes the connection unless the body was read to its end: what
// is left of a stream is not worth reading to reuse its connection.
func (b *hopBody) Close() error {
	if b.pc != nil {
		b.stop()
		b.pc.close()
		b.pc = nil
	}
	b.err = errBodyClosed
	return nil
}
