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
	"net/textproto"
	"slices"
	"strconv"
	"strings"
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

// hopTransport is the default client's http.RoundTripper: HTTP/1.1 over
// plain TCP with a per-host pool of idle keep-alive connections. A request
// is written from one pooled buffer in one write on the calling goroutine,
// and its reply is read there with http.ReadResponse, so the framing of
// the body is net/http's. Nothing runs between requests: an idle
// connection holds no goroutine, only a stopped timer, and a daemon that
// closed one is found out when it is next used — a reused connection that
// fails before any byte of a reply is redialled once, and the request sent
// again from the bytes in hand. It speaks plain http only and reads no
// proxy variables; anything else goes through WithHTTPClient.
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
	br   *bufio.Reader // reads conn through Read
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

// errNotHTTP is why the hop transport refuses a URL: it has no TLS and no
// proxy support, which a caller supplies with its own http.Client.
var errNotHTTP = errors.New("modeld: the default transport speaks plain http only; pass an http.Client with WithHTTPClient")

// RoundTrip implements http.RoundTripper.
func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	msg := hopMessagePool.Get().(*hopMessage)
	defer msg.release()
	if err := msg.build(req); err != nil {
		return nil, err
	}
	if req.URL.Scheme != "http" {
		return nil, fmt.Errorf("%w (got %s)", errNotHTTP, req.URL.Scheme)
	}
	ctx := req.Context()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	pc := t.idleConn(addr)
	reused := pc != nil
	for {
		if pc == nil {
			conn, err := t.dial(ctx, "tcp", addr)
			if err != nil {
				if ctx.Err() != nil {
					return nil, context.Cause(ctx)
				}
				return nil, err
			}
			pc = &hopConn{t: t, addr: addr, conn: conn}
			pc.br = bufio.NewReader(pc)
			pc.expire = pc.expireNow
		}
		resp, replied, err := pc.roundTrip(ctx, req, msg.b)
		if err == nil {
			return resp, nil
		}
		pc.conn.Close()
		switch {
		case ctx.Err() != nil:
			return nil, context.Cause(ctx)
		case !reused || replied:
			return nil, err
		}
		// The daemon closed the idle connection under us: once more on a
		// fresh one.
		pc, reused = nil, false
	}
}

// roundTrip sends msg, the bytes of req, and reads the reply's header. It
// reports whether any byte of a reply arrived, which rules out resending.
// On an error the caller closes the connection.
func (pc *hopConn) roundTrip(ctx context.Context, req *http.Request, msg []byte) (resp *http.Response, replied bool, err error) {
	stop := context.AfterFunc(ctx, pc.expire)
	defer func() {
		if err != nil {
			stop()
		}
	}()
	if _, err = pc.conn.Write(msg); err != nil {
		return nil, false, err
	}
	if _, err = pc.br.Peek(1); err != nil {
		return nil, false, err
	}
	resp, err = http.ReadResponse(pc.br, req)
	switch {
	case err != nil:
		return nil, true, err
	case resp.StatusCode < http.StatusOK:
		// The daemon sends no informational replies; one that does is not
		// followed any further.
		return nil, true, fmt.Errorf("modeld: unexpected %s", resp.Status)
	}
	keep := !resp.Close && !req.Close
	if resp.Body == http.NoBody {
		pc.release(stop, keep)
		return resp, true, nil
	}
	resp.Body = &hopBody{pc: pc, body: resp.Body, ctx: ctx, stop: stop, keep: keep}
	return resp, true, nil
}

// expireNow is hopConn.expire.
func (pc *hopConn) expireNow() { pc.conn.SetDeadline(time.Unix(1, 0)) }

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
		pc.conn.Close()
		return
	}
	t := pc.t
	t.mu.Lock()
	defer t.mu.Unlock()
	idle := t.idle[pc.addr]
	if len(idle) >= maxIdlePerHost {
		pc.conn.Close()
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
	pc.conn.Close()
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
		pc.conn.Close()
	}
	t.idle[addr] = idle
	return nil
}

// hopBody is a reply's body: net/http's framing over the connection, which
// goes back to the pool when the body reaches its end cleanly and is
// closed when it breaks, when the request's context ends or when the
// caller closes the body before its end. Like the connection, it has one
// user at a time: a Read blocked on the daemon is ended by the request's
// context, not by Close.
type hopBody struct {
	body io.ReadCloser
	ctx  context.Context
	keep bool
	stop func() bool // the request's context.AfterFunc
	pc   *hopConn    // nil once the connection is released or closed
	err  error       // what Read returns once pc is nil
}

var errBodyClosed = errors.New("http: read on closed response body")

func (b *hopBody) Read(p []byte) (int, error) {
	if b.pc == nil {
		return 0, b.err
	}
	n, err := b.body.Read(p)
	if err == nil {
		return n, nil
	}
	if err != io.EOF && b.ctx.Err() != nil {
		err = context.Cause(b.ctx)
	}
	pc := b.pc
	b.pc, b.err = nil, err
	if err == io.EOF {
		pc.release(b.stop, b.keep)
	} else {
		b.stop()
		pc.conn.Close()
	}
	return n, err
}

// readNoWait reads body without waiting on the daemon: what has already
// arrived, then errWouldBlock, after which the connection is closed, since
// net/http's body framing keeps that error. Only the hop's own body can
// tell what has arrived; any other reports errWouldBlock at once.
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
		b.pc.conn.Close()
		b.pc = nil
	}
	b.err = errBodyClosed
	return nil
}

// hopMessage is pooled storage for one request's bytes: the head in b,
// then the body, read first into body.
type hopMessage struct {
	b    []byte
	body bytes.Buffer
}

var hopMessagePool = sync.Pool{New: func() any { return new(hopMessage) }}

func (m *hopMessage) release() {
	if cap(m.b) <= maxPooledBody {
		hopMessagePool.Put(m)
	}
}

// build renders req into m.b as net/http writes it for a transport that
// neither compresses nor proxies: the request line, Host, User-Agent (Go's
// default unless the header names one; an empty one is not sent),
// Connection: close when req.Close, Content-Length, the other header
// fields in key order, then the body. The body is read whole first — and
// closed, as RoundTrip must — so it goes out with its length.
func (m *hopMessage) build(req *http.Request) error {
	m.body.Reset()
	if req.Body != nil {
		_, err := m.body.ReadFrom(req.Body)
		if cerr := req.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if req.URL == nil {
		return errors.New("modeld: request without a URL")
	}
	if n := int64(m.body.Len()); req.ContentLength > 0 && n != req.ContentLength {
		return fmt.Errorf("http: ContentLength=%d with Body length %d", req.ContentLength, n)
	}
	var stack [8]string
	keys := stack[:0]
	for k, vs := range req.Header {
		if !validName(k) {
			return fmt.Errorf("modeld: invalid header field name %q", k)
		}
		for _, v := range vs {
			if !validValue(v) {
				return fmt.Errorf("modeld: invalid header field value for %q", k)
			}
		}
		switch k {
		case "Host", "User-Agent", "Content-Length", "Transfer-Encoding", "Trailer":
		default:
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	method, host, uri := cmp.Or(req.Method, http.MethodGet), cmp.Or(req.Host, req.URL.Host), req.URL.RequestURI()
	if !validValue(host) || !validValue(uri) {
		return fmt.Errorf("modeld: control character in the request's URL %q", req.URL)
	}
	b := append(append(append(m.b[:0], method...), ' '), uri...)
	b = append(append(append(b, " HTTP/1.1\r\nHost: "...), host...), "\r\n"...)
	ua := "Go-http-client/1.1"
	if _, ok := req.Header["User-Agent"]; ok {
		ua = textproto.TrimString(req.Header.Get("User-Agent"))
	}
	if ua != "" {
		b = append(append(append(b, "User-Agent: "...), ua...), "\r\n"...)
	}
	if req.Close {
		b = append(b, "Connection: close\r\n"...)
	}
	if m.body.Len() > 0 || method == http.MethodPost || method == http.MethodPut || method == http.MethodPatch {
		b = strconv.AppendInt(append(b, "Content-Length: "...), int64(m.body.Len()), 10)
		b = append(b, "\r\n"...)
	}
	for _, k := range keys {
		for _, v := range req.Header[k] {
			b = append(append(append(append(b, k...), ": "...), textproto.TrimString(v)...), "\r\n"...)
		}
	}
	m.b = append(append(b, "\r\n"...), m.body.Bytes()...)
	return nil
}

// validName reports whether s is an HTTP token, as a header field name
// must be.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case strings.IndexByte("!#$%&'*+-.^_`|~", c) < 0:
			return false
		}
	}
	return true
}

// validValue reports whether s holds no control character but a tab: no
// line break that could end the field early and smuggle in another.
func validValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < ' ' && c != '\t') || c == 0x7f {
			return false
		}
	}
	return true
}
