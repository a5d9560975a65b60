package serve

import (
	"net"
	"time"
)

// clientOptions collects the functional-option surface of Connect.
type clientOptions struct {
	proto   string
	batch   int
	timeout time.Duration
}

// Option configures a Client built by Connect.
type Option func(*clientOptions)

// WithProtocol selects the wire encoding: "binary" (DARTWIRE1 framing, the
// default) or "json" (line-delimited, the debug protocol).
func WithProtocol(proto string) Option {
	return func(o *clientOptions) { o.proto = proto }
}

// WithBatchSize sets the client's preferred accesses-per-frame (binary) or
// pipelined burst size (json). It does not change Client behaviour directly —
// AccessBatch sends whatever it is given — but callers can read it back via
// BatchSize to size their frames. Default 64.
func WithBatchSize(n int) Option {
	return func(o *clientOptions) { o.batch = n }
}

// WithTimeout bounds the TCP dial and every subsequent call: each Do or
// AccessBatch arms a connection deadline of d covering its whole round trip.
// A deadline expiry poisons the client like any other transport failure (the
// stream may hold a half-written frame), so health probes that time out must
// discard the client. Zero means no deadline (the default).
func WithTimeout(d time.Duration) Option {
	return func(o *clientOptions) { o.timeout = d }
}

// Connect dials addr over TCP and returns a Client speaking the configured
// protocol — the one constructor behind every in-repo caller:
//
//	c, err := serve.Connect("127.0.0.1:7381")                       // binary
//	c, err := serve.Connect(addr, serve.WithProtocol("json"),
//	        serve.WithTimeout(time.Second))
func Connect(addr string, opts ...Option) (*Client, error) {
	o := clientOptions{proto: "binary", batch: 64}
	for _, opt := range opts {
		opt(&o)
	}
	var conn net.Conn
	var err error
	if o.timeout > 0 {
		conn, err = net.DialTimeout("tcp", addr, o.timeout)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	c, err := newClient(conn, o)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}
