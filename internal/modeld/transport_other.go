//go:build !unix

package modeld

import "net"

// rawRead stands for read(2)s that do not wait: without read(2) there is
// no telling what has arrived on a connection from what is still to come.
type rawRead struct{}

func newRawRead(net.Conn) *rawRead { return &rawRead{} }

// now reports errWouldBlock.
func (*rawRead) now([]byte) (int, error) { return 0, errWouldBlock }
