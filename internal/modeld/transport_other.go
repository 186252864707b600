//go:build !unix

package modeld

import "net"

// readNow reports errWouldBlock: without read(2) there is no telling
// what has arrived on conn from what is still to come.
func readNow(net.Conn, []byte) (int, error) { return 0, errWouldBlock }
