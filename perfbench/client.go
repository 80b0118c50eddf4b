package main

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// The benchmark's own stub client: one persistent connection per
// client, one query in flight at a time.

const (
	queryTimeout = time.Second
	dohMediaType = "application/dns-message"
)

var protos = []string{"udp", "tcp", "dot", "doh"}

// endpoints are the addresses of one server under test: the dohpool
// frontend or the null responder.
type endpoints struct {
	udp, tcp, dot, doh string
	tls                *tls.Config // trust anchor for dot and doh
}

// conn is one client connection. exchange sends one wire query and
// returns the reply, which stays valid until the next call.
type conn interface {
	exchange(query []byte) ([]byte, error)
	close()
}

func dial(proto string, ep endpoints) (conn, error) {
	switch proto {
	case "udp":
		c, err := net.Dial("udp", ep.udp)
		if err != nil {
			return nil, err
		}
		return &udpConn{c: c, buf: make([]byte, 4096)}, nil
	case "tcp":
		c, err := net.Dial("tcp", ep.tcp)
		if err != nil {
			return nil, err
		}
		return newStreamConn(c), nil
	case "dot":
		c, err := tls.Dial("tcp", ep.dot, ep.tls)
		if err != nil {
			return nil, err
		}
		return newStreamConn(c), nil
	case "doh":
		// One transport per client keeps each client on its own HTTP/2
		// connection instead of multiplexing both on one.
		tr := &http.Transport{TLSClientConfig: ep.tls, ForceAttemptHTTP2: true, MaxConnsPerHost: 1}
		return &dohConn{
			hc:  &http.Client{Transport: tr, Timeout: queryTimeout},
			url: "https://" + ep.doh + "/dns-query",
			tr:  tr,
		}, nil
	}
	return nil, fmt.Errorf("unknown transport %q", proto)
}

type udpConn struct {
	c   net.Conn
	buf []byte
}

func (u *udpConn) exchange(query []byte) ([]byte, error) {
	if err := u.c.SetDeadline(time.Now().Add(queryTimeout)); err != nil {
		return nil, err
	}
	if _, err := u.c.Write(query); err != nil {
		return nil, err
	}
	n, err := u.c.Read(u.buf)
	if err != nil {
		return nil, err
	}
	return u.buf[:n], nil
}

func (u *udpConn) close() { _ = u.c.Close() }

// streamConn carries RFC 7766 length-prefixed messages over TCP or TLS.
type streamConn struct {
	c    net.Conn
	r    *bufio.Reader
	out  []byte
	resp []byte
}

func newStreamConn(c net.Conn) *streamConn {
	return &streamConn{c: c, r: bufio.NewReader(c), resp: make([]byte, 65535)}
}

func (s *streamConn) exchange(query []byte) ([]byte, error) {
	if err := s.c.SetDeadline(time.Now().Add(queryTimeout)); err != nil {
		return nil, err
	}
	s.out = binary.BigEndian.AppendUint16(s.out[:0], uint16(len(query)))
	s.out = append(s.out, query...)
	if _, err := s.c.Write(s.out); err != nil {
		return nil, err
	}
	var hdr [2]byte
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(hdr[:]))
	if _, err := io.ReadFull(s.r, s.resp[:n]); err != nil {
		return nil, err
	}
	return s.resp[:n], nil
}

func (s *streamConn) close() { _ = s.c.Close() }

// dohConn sends RFC 8484 POST queries over HTTP/2.
type dohConn struct {
	hc   *http.Client
	tr   *http.Transport
	url  string
	body bytes.Buffer
}

func (d *dohConn) exchange(query []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.url, bytes.NewReader(query))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", dohMediaType)
	req.Header.Set("Accept", dohMediaType)
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http status %d", resp.StatusCode)
	}
	d.body.Reset()
	if _, err := d.body.ReadFrom(io.LimitReader(resp.Body, 65536)); err != nil {
		return nil, err
	}
	return d.body.Bytes(), nil
}

func (d *dohConn) close() { d.tr.CloseIdleConnections() }
