//go:build unix

package modeld

import (
	"io"
	"net"
	"syscall"
)

// rawRead makes read(2)s on a connection's socket that do not wait for the
// daemon. It is made once a connection, so that a read allocates nothing.
type rawRead struct {
	rc   syscall.RawConn // nil when the connection has no socket to read so
	p    []byte
	n    int
	err  error
	read func(fd uintptr) bool // reads p into n and err
}

func newRawRead(conn net.Conn) *rawRead {
	r := &rawRead{}
	if sc, ok := conn.(syscall.Conn); ok {
		r.rc, _ = sc.SyscallConn()
	}
	r.read = func(fd uintptr) bool {
		r.n, r.err = syscall.Read(int(fd), r.p)
		return true
	}
	return r
}

// now makes one read(2) into p: it returns what had arrived, or
// errWouldBlock when nothing had or the socket cannot be read so.
func (r *rawRead) now(p []byte) (n int, err error) {
	if r.rc == nil {
		return 0, errWouldBlock
	}
	r.p, r.n, r.err = p, 0, errWouldBlock
	if err := r.rc.Read(r.read); err != nil {
		r.err = err
	}
	n, err, r.p = r.n, r.err, nil
	switch {
	case err == syscall.EAGAIN:
		return 0, errWouldBlock
	case err != nil:
		return 0, err
	case n == 0:
		return 0, io.EOF
	}
	return n, nil
}
