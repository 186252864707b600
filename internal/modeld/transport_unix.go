//go:build unix

package modeld

import (
	"io"
	"net"
	"syscall"
)

// readNow makes one read(2) on conn's socket that does not wait for the
// daemon: it returns what had arrived, or errWouldBlock when nothing had
// or the socket cannot be read so.
func readNow(conn net.Conn, p []byte) (n int, err error) {
	err = errWouldBlock
	if sc, ok := conn.(syscall.Conn); ok {
		if rc, rerr := sc.SyscallConn(); rerr == nil {
			rc.Read(func(fd uintptr) bool { n, err = syscall.Read(int(fd), p); return true })
		}
	}
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
