package main

import (
	"net"
	"sync/atomic"
)

// wireBytes counts what crosses one server's listener, as the server
// sees it: up is client→server (the server's reads), down is
// server→client (its writes).
type wireBytes struct{ up, down atomic.Int64 }

// countingListener is handed to Server.Serve in place of the TCP
// listener. It wraps accepted connections rather than proxying them, so
// counting costs two atomic adds per read/write and no extra hop.
type countingListener struct {
	net.Listener
	n *wireBytes
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *wireBytes
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.up.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.down.Add(int64(n))
	return n, err
}
