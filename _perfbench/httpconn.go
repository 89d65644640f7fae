package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
)

// conn is a minimal HTTP/1.1 client holding one keep-alive loopback
// connection. The load generator uses it instead of net/http's client
// because the server under test shares the process and its two cores:
// this client starts no goroutines of its own, allocates nothing per
// request and spends little CPU, so the figures describe the server.
type conn struct {
	nc   net.Conn
	host string
	br   *bufio.Reader
	req  []byte
	body []byte // body of the last response
	etag []byte // ETag of the last response
	snap []byte // X-Gamma-Snapshot of the last response: the generation that answered
}

func dial(base string) (*conn, error) {
	host := strings.TrimPrefix(base, "http://")
	nc, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, host: host, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (c *conn) close() error { return c.nc.Close() }

// roundTrip sends a request without a body and reads the whole response.
// The request target is target followed by query; inm, when set, is sent
// as If-None-Match; span, when non-zero, as the Bench-Span header of a
// traced run.
func (c *conn) roundTrip(method, target, query, inm string, span int32) (status int, err error) {
	b := append(c.req[:0], method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, query...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	b = append(b, "\r\n"...)
	if method == "POST" {
		b = append(b, "Content-Length: 0\r\n"...)
	}
	if inm != "" {
		b = append(b, "If-None-Match: "...)
		b = append(b, inm...)
		b = append(b, "\r\n"...)
	}
	if span != 0 {
		b = append(b, spanHeader+": "...)
		b = strconv.AppendInt(b, int64(span), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	c.req = b
	if _, err := c.nc.Write(b); err != nil {
		return 0, err
	}
	return c.readResponse()
}

var (
	hdrContentLength    = []byte("content-length")
	hdrETag             = []byte("etag")
	hdrSnapshot         = []byte("x-gamma-snapshot")
	hdrTransferEncoding = []byte("transfer-encoding")
)

// readResponse reads one response: status line, headers, and a body
// delimited by Content-Length, which the server under test always sends.
func (c *conn) readResponse() (int, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	status := atoi(line[9:12])
	if status < 0 {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	clen := -1
	c.etag, c.snap = c.etag[:0], c.snap[:0]
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, hdrContentLength):
			if clen = atoi(value); clen < 0 {
				return 0, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, hdrETag):
			c.etag = append(c.etag, value...)
		case bytes.EqualFold(name, hdrSnapshot):
			c.snap = append(c.snap, value...)
		case bytes.EqualFold(name, hdrTransferEncoding):
			return 0, fmt.Errorf("unsupported Transfer-Encoding %q", value)
		}
	}
	if status == 304 || status == 204 || status < 200 {
		clen = 0
	}
	if clen < 0 {
		return 0, fmt.Errorf("status %d response without Content-Length", status)
	}
	if cap(c.body) < clen {
		c.body = make([]byte, clen)
	}
	c.body = c.body[:clen]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, err
	}
	return status, nil
}

// atoi parses a non-empty run of decimal digits; -1 for anything else.
func atoi(b []byte) int {
	if len(b) == 0 || len(b) > 9 {
		return -1
	}
	n := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			return -1
		}
		n = n*10 + int(d-'0')
	}
	return n
}
