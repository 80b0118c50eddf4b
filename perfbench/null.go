package main

import (
	"bufio"
	"crypto/tls"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"sync"
)

// nullResponder answers every query on the four transports with one
// pre-encoded answer section behind the query's own ID and question. It
// has no engine and no cache, so the client's latency against it is the
// floor the loopback round trip and the benchmark's own client impose.
type nullResponder struct {
	answer []byte
	udp    net.PacketConn
	tcp    net.Listener
	dot    net.Listener
	doh    *http.Server
	dohLn  net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]bool
}

func startNull(answer []byte, serverTLS *tls.Config) (*nullResponder, error) {
	n := &nullResponder{answer: answer, conns: map[net.Conn]bool{}}
	var err error
	if n.udp, err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if n.tcp, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		n.close()
		return nil, err
	}
	if n.dot, err = tls.Listen("tcp", "127.0.0.1:0", serverTLS); err != nil {
		n.close()
		return nil, err
	}
	if n.dohLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		n.close()
		return nil, err
	}
	n.doh = &http.Server{Handler: http.HandlerFunc(n.serveDoH), TLSConfig: serverTLS.Clone()}
	// One reader per client connection, as the frontend runs one reader
	// per UDP socket.
	for i := 0; i < clients; i++ {
		n.wg.Add(1)
		go n.serveUDP()
	}
	n.wg.Add(3)
	go n.acceptStream(n.tcp)
	go n.acceptStream(n.dot)
	go func() {
		defer n.wg.Done()
		_ = n.doh.ServeTLS(n.dohLn, "", "")
	}()
	return n, nil
}

func (n *nullResponder) endpoints(clientTLS *tls.Config) endpoints {
	return endpoints{
		udp: n.udp.LocalAddr().String(),
		tcp: n.tcp.Addr().String(),
		dot: n.dot.Addr().String(),
		doh: n.dohLn.Addr().String(),
		tls: clientTLS,
	}
}

func (n *nullResponder) serveUDP() {
	defer n.wg.Done()
	buf := make([]byte, 512)
	var out []byte
	for {
		m, addr, err := n.udp.ReadFrom(buf)
		if err != nil {
			return
		}
		if out = appendCanned(out[:0], buf[:m], n.answer); out != nil {
			_, _ = n.udp.WriteTo(out, addr)
		}
	}
}

func (n *nullResponder) acceptStream(ln net.Listener) {
	defer n.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		n.conns[c] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveStream(c)
	}
}

func (n *nullResponder) serveStream(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, c)
		n.mu.Unlock()
		_ = c.Close()
	}()
	r := bufio.NewReader(c)
	query := make([]byte, 65535)
	var out []byte
	for {
		var hdr [2]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		m := int(binary.BigEndian.Uint16(hdr[:]))
		if _, err := io.ReadFull(r, query[:m]); err != nil {
			return
		}
		out = append(out[:0], 0, 0)
		if out = appendCanned(out, query[:m], n.answer); out == nil {
			return
		}
		binary.BigEndian.PutUint16(out, uint16(len(out)-2))
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

func (n *nullResponder) serveDoH(w http.ResponseWriter, r *http.Request) {
	query, err := io.ReadAll(io.LimitReader(r.Body, 65536))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := appendCanned(nil, query, n.answer)
	if out == nil {
		http.Error(w, "not a query", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", dohMediaType)
	_, _ = w.Write(out)
}

// close stops every listener and waits for every goroutine to return.
func (n *nullResponder) close() {
	if n.doh != nil {
		_ = n.doh.Close()
	}
	for _, c := range []io.Closer{n.udp, n.tcp, n.dot, n.dohLn} {
		if c != nil {
			_ = c.Close()
		}
	}
	n.mu.Lock()
	for c := range n.conns {
		_ = c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
}
