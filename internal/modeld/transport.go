package modeld

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
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
	// noWait: Read takes only what has arrived (readNoWait).
	noWait bool
	// expire sets a past deadline on conn, failing whatever is blocked on
	// it: it runs when the owning request's context ends. Bound once.
	expire func()
	// timer closes the connection once it has been idle for idleTimeout;
	// idleAt is when it was pooled. Both are guarded by t.mu.
	timer  *time.Timer
	idleAt time.Time
}

// brPool holds read buffers: a dial takes one; the connection's owner puts
// it back, emptied, when it closes the connection.
var brPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// errNotHTTP is why New gives a client no hop route: the hop transport has
// no TLS and no proxy support, which a caller supplies with its own
// http.Client.
var errNotHTTP = errors.New("modeld: the default transport speaks plain http only; pass an http.Client with WithHTTPClient")

// hopRoute writes a client's generation requests as net/http writes the
// one roundTripRoute builds: prefix (request line, Host, Content-Length's
// name, built by New), the length, the fields, then the pooled body.
type hopRoute struct {
	t            *hopTransport
	addr, prefix string
}

func (r *hopRoute) exchange(ctx context.Context, msg *requestBuf, traceparent string, lr *lineReader) error {
	w := strconv.AppendInt(append(msg.wire[:0], r.prefix...), int64(len(msg.body)), 10)
	w = append(w, "\r\nContent-Type: application/json\r\n"...)
	if traceparent != "" {
		w = append(append(append(w, "Traceparent: "...), traceparent...), "\r\n"...)
	}
	msg.wire = append(append(w, "\r\n"...), msg.body...)
	b := &lr.hop
	if err := r.t.exchange(ctx, r.addr, msg.wire, b); err != nil {
		return err
	}
	if b.code != http.StatusOK {
		err := decodeError(b.status, b)
		b.Close()
		return err
	}
	lr.body, lr.ctx = b, ctx
	return nil
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
// noWait is set one that does not wait (readNow).
func (pc *hopConn) Read(p []byte) (int, error) {
	if pc.noWait {
		return readNow(pc.conn, p)
	}
	return pc.conn.Read(p)
}

// release hands the connection back at the end of a reply: to the idle
// pool when the reply allowed it (keep) and the request's context had not
// ended — stop stops its AfterFunc before it fires — and closed otherwise.
func (pc *hopConn) release(stop func() bool, keep bool) {
	pc.noWait = false
	if !stop() || !keep || pc.br.Buffered() > 0 {
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

// idleConn takes the most recently used idle connection to addr, or
// returns nil.
func (t *hopTransport) idleConn(addr string) *hopConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	idle := t.idle[addr]
	for len(idle) > 0 {
		pc := idle[len(idle)-1]
		idle[len(idle)-1] = nil
		idle = idle[:len(idle)-1]
		pc.timer.Stop()
		if time.Since(pc.idleAt) < idleTimeout {
			t.idle[addr] = idle
			return pc
		}
		pc.close()
	}
	t.idle[addr] = idle
	return nil
}

// hopBody is a reply: its head, then its body framed as net/http frames it.
// The connection is pooled when the body ends cleanly and closed when it
// breaks, the request's context ends or the body is closed early. It has
// one user at a time: a blocked Read is ended by the request's context or
// clientStream.abort, not by Close.
type hopBody struct {
	code   int
	status string
	// n is what is left of a Content-Length body; src reads a chunked one
	// (n < 0), or net/http's for a head parseHead declined.
	n       int64
	chunked bool
	close   bool // the daemon said Connection: close
	src     io.Reader

	ctx  context.Context
	stop func() bool // the exchange's context.AfterFunc
	keep bool
	pc   *hopConn // nil once the connection is released or closed
	err  error    // what Read returns once pc is nil
}

var errBodyClosed = errors.New("http: read on closed response body")

func (b *hopBody) Read(p []byte) (int, error) {
	if b.pc == nil {
		return 0, b.err
	}
	n, err := b.read(p)
	switch {
	case err == nil:
		return n, nil
	case err == io.EOF:
	case b.ctx.Err() != nil:
		err = context.Cause(b.ctx)
	case errors.Is(err, net.ErrClosed):
		err = context.Canceled // clientStream.abort closed it
	}
	pc := b.pc
	b.pc, b.err = nil, err
	if err == io.EOF {
		pc.release(b.stop, b.keep)
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

var (
	crlf, colonSpace, endOfHead = []byte("\r\n"), []byte(": "), []byte("\r\n\r\n")
	errTrailerEOF               = errors.New("http: unexpected EOF reading trailer")
	headFields                  = []string{"Content-Type", "Date", "Content-Length", "Transfer-Encoding", "Connection"}
	unprintable                 = func(r rune) bool { return r < ' ' || r > '~' }
)

// readTrailer reads what follows a chunked body's last chunk: CRLF, or
// trailer fields (dropped) that end within br's buffer.
func readTrailer(br *bufio.Reader) error {
	if buf, _ := br.Peek(2); string(buf) == "\r\n" {
		br.Discard(2)
		return nil
	} else if len(buf) < 2 {
		return errTrailerEOF
	}
	for n := len(endOfHead); ; n++ {
		buf, err := br.Peek(n)
		if bytes.HasSuffix(buf, endOfHead) {
			break
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
	if b.chunked {
		b.src = httputil.NewChunkedReader(br)
	}
	return len(head)
}

// readNoWait reads body without waiting on the daemon: what has arrived,
// then errWouldBlock, after which the connection is closed. Only the hop's
// own body can tell what has arrived; any other says errWouldBlock at once.
func readNoWait(body io.Reader, p []byte) (int, error) {
	b, ok := body.(*hopBody)
	if !ok || b.pc == nil {
		return 0, errWouldBlock
	}
	pc := b.pc
	pc.noWait = true
	n, err := b.Read(p)
	if err == nil {
		pc.noWait = false
	}
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
