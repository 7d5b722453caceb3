package router

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"

	"parallellives/internal/obs"
)

// maxIdlePerReplica caps the kept-alive connections parked per replica
// URL: enough for the hedge, the probe and a couple of concurrent reads,
// few enough that a fleet of idle routers holds no fd budget hostage.
const maxIdlePerReplica = 4

// replicaPool is the router's client for one replica base URL: a
// bounded LIFO of kept-alive connections, each used by one fetch at a
// time. A fetch writes its request and reads the reply on the calling
// goroutine — one write and one read per hop, no handoff to per-
// connection reader and writer goroutines. The router owns one pool per
// configured URL for its whole life, so a topology rebuild keeps the
// warm connections of every replica it keeps.
type replicaPool struct {
	base string // the configured base URL, trailing slash trimmed
	addr string // host:port to dial
	host string // Host header

	mu   sync.Mutex
	idle []*replicaConn // most recently returned last
}

// replicaConn is one kept-alive connection and its read and write
// buffers. br reads through lr, which each exchange refills to
// maxReply: a reply's header block cannot grow without bound either.
type replicaConn struct {
	net.Conn
	lr  io.LimitedReader
	br  *bufio.Reader
	req []byte
}

// maxReply bounds what one exchange reads: as much header as body.
const maxReply = 2 * MaxPeerBody

// newReplicaPool parses a base URL once, so no fetch parses one.
func newReplicaPool(base string) (*replicaPool, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("router: shard URL %q: %w", base, err)
	}
	if u.Scheme != "http" || u.Host == "" || u.Path != "" || u.RawQuery != "" || u.Fragment != "" {
		return nil, fmt.Errorf("router: shard URL %q: want http://host:port", base)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	return &replicaPool{base: base, addr: net.JoinHostPort(u.Hostname(), port), host: u.Host}, nil
}

// get hands out the most recently parked connection, or dials one when
// none is parked or fresh is set. reused reports a parked connection —
// the only kind that may turn out to be dead before its first byte.
func (p *replicaPool) get(ctx context.Context, fresh bool) (c *replicaConn, reused bool, err error) {
	if !fresh {
		p.mu.Lock()
		if n := len(p.idle); n > 0 {
			c = p.idle[n-1]
			p.idle = p.idle[:n-1]
		}
		p.mu.Unlock()
		if c != nil {
			return c, true, nil
		}
	}
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, false, err
	}
	c = &replicaConn{Conn: nc, lr: io.LimitedReader{R: nc}}
	c.br = bufio.NewReader(&c.lr)
	return c, false, nil
}

// put parks a connection whose last reply was read to the end, or
// closes it when the pool is full.
func (p *replicaPool) put(c *replicaConn) {
	p.mu.Lock()
	if len(p.idle) < maxIdlePerReplica {
		p.idle = append(p.idle, c)
		c = nil
	}
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// closeIdle closes every parked connection: the replica left the
// topology. A fetch still in flight on the old topology may park one
// again; the cap bounds what that can hold.
func (p *replicaPool) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// requestTarget is the request target for pathq (a serve.PathQuery: decoded
// path, raw query). A path of plain characters is written as is; any
// other goes through url.Parse and RequestURI, which escape it exactly
// as http.NewRequest would have.
func requestTarget(pathq string) (string, error) {
	query := false
	for i := 0; i < len(pathq); i++ {
		c := pathq[i]
		query = query || c == '?'
		if c > ' ' && c < 0x7f && c != '#' && (query || plainPathByte[c]) {
			continue
		}
		u, err := url.Parse(pathq)
		if err != nil {
			return "", err
		}
		return u.RequestURI(), nil
	}
	return pathq, nil
}

// plainPathByte marks the bytes a path keeps unescaped through
// url.Parse and RequestURI.
var plainPathByte = func() (t [128]bool) {
	for _, c := range "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._~/$&+,:;=@!'()*?" {
		t[c] = true
	}
	return t
}()

// roundTrip sends one request to the replica and reads the reply whole.
// GET and HEAD take a parked connection when there is one; if it proves
// dead before the first reply byte (the replica restarted, or closed it
// as idle), the request goes once more on a fresh dial, since nothing
// reached a live process. POST, which is not idempotent, always dials.
// A context deadline becomes the connection's deadline, and a
// cancellation forces it into the past. The connection is parked again
// only after its reply was read to the end; any error, cancellation,
// oversized body or Connection: close closes it.
func (p *replicaPool) roundTrip(ctx context.Context, method, target, ifNoneMatch, traceparent string) (*http.Response, []byte, error) {
	idempotent := method == http.MethodGet || method == http.MethodHead
	fresh := !idempotent
	for {
		c, reused, err := p.get(ctx, fresh)
		if err != nil {
			return nil, nil, err
		}
		dl, _ := ctx.Deadline()
		c.SetDeadline(dl)
		stop := context.AfterFunc(ctx, func() { c.SetDeadline(aLongTimeAgo) })
		resp, body, replied, err := c.exchange(p.host, method, target, ifNoneMatch, traceparent)
		intact := stop() // false once the cancellation has touched the deadline
		if err == nil {
			if intact && !resp.Close && c.br.Buffered() == 0 {
				p.put(c)
			} else {
				c.Close()
			}
			return resp, body, nil
		}
		c.Close()
		timedOut := errors.Is(err, os.ErrDeadlineExceeded)
		if reused && !replied && idempotent && !timedOut {
			fresh = true
			continue
		}
		if timedOut {
			// The connection's deadline is only ever the context's, so
			// the context is done or about to be.
			<-ctx.Done()
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
}

// aLongTimeAgo is the deadline that unblocks a cancelled fetch's I/O.
var aLongTimeAgo = time.Unix(1, 0)

// headRequest tells http.ReadResponse that a HEAD reply has no body.
var headRequest = &http.Request{Method: http.MethodHead}

// exchange writes one request on the connection and reads its reply
// whole. replied reports whether any reply byte arrived.
func (c *replicaConn) exchange(host, method, target, ifNoneMatch, traceparent string) (resp *http.Response, body []byte, replied bool, err error) {
	b := append(c.req[:0], method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\n"...)
	if ifNoneMatch != "" {
		// Relayed as is: net/http's server refuses a request whose header
		// values hold control bytes, so this one cannot split the request.
		b = append(b, "If-None-Match: "...)
		b = append(b, ifNoneMatch...)
		b = append(b, "\r\n"...)
	}
	if traceparent != "" {
		b = append(b, obs.TraceparentHeader+": "...)
		b = append(b, traceparent...)
		b = append(b, "\r\n"...)
	}
	if method == http.MethodPost {
		b = append(b, "Content-Length: 0\r\n"...)
	}
	b = append(b, "\r\n"...)
	c.req = b
	if _, err := c.Write(b); err != nil {
		return nil, nil, false, err
	}
	c.lr.N = maxReply
	if _, err := c.br.Peek(1); err != nil {
		return nil, nil, false, err
	}
	var req *http.Request
	if method == http.MethodHead {
		req = headRequest
	}
	resp, err = http.ReadResponse(c.br, req)
	if err != nil {
		return nil, nil, true, err
	}
	switch {
	case resp.Body == http.NoBody: // HEAD, 304, or an empty body
	case resp.ContentLength > MaxPeerBody:
		return nil, nil, true, errBodyTooLarge
	case resp.ContentLength >= 0:
		body = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, body)
	default:
		body, err = ReadPeerBody(resp.Body)
	}
	if err != nil {
		return nil, nil, true, fmt.Errorf("reading body: %w", err)
	}
	return resp, body, true, nil
}
