package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// The benchmark speaks DNS wire format itself instead of importing the
// program's codec, so the oracle is independent of the code it checks.

const (
	typeA   = 1
	classIN = 1
	// answersPerReply is N·L: 3 resolvers × 4 answers each (the testbed's
	// MaxAnswers), every one kept after truncation.
	answersPerReply = 12
)

// question encodes name as the question section of an A/IN query.
func question(name string) []byte {
	var b []byte
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	b = append(b, 0)
	return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(b, typeA), classIN)
}

// appendQuery appends a recursion-desired query with the given ID and
// pre-encoded question to dst.
func appendQuery(dst []byte, id uint16, q []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, id)
	dst = append(dst, 0x01, 0x00) // RD
	dst = append(dst, 0, 1, 0, 0, 0, 0, 0, 0)
	return append(dst, q...)
}

// oracle checks every answer the benchmark receives.
type oracle struct {
	benign map[netip.Addr]bool
	maxTTL uint32
}

func newOracle(benign []netip.Addr, maxTTL uint32) *oracle {
	o := &oracle{benign: make(map[netip.Addr]bool, len(benign)), maxTTL: maxTTL}
	for _, a := range benign {
		o.benign[a] = true
	}
	return o
}

var errShort = errors.New("truncated message")

// check validates resp as the answer to a query with this ID and
// question: NOERROR, ID and question echoed, exactly answersPerReply A
// records owned by the queried name, every address a benign pool
// address and every TTL at most the zone TTL.
func (o *oracle) check(resp []byte, id uint16, q []byte) error {
	if len(resp) < 12+len(q) {
		return errShort
	}
	if got := binary.BigEndian.Uint16(resp); got != id {
		return fmt.Errorf("id %d, want %d", got, id)
	}
	if resp[2]&0x80 == 0 {
		return errors.New("QR bit clear")
	}
	if rc := resp[3] & 0x0f; rc != 0 {
		return fmt.Errorf("rcode %d", rc)
	}
	if qd := binary.BigEndian.Uint16(resp[4:]); qd != 1 {
		return fmt.Errorf("qdcount %d", qd)
	}
	if an := binary.BigEndian.Uint16(resp[6:]); an != answersPerReply {
		return fmt.Errorf("ancount %d, want %d", an, answersPerReply)
	}
	if !bytes.EqualFold(resp[12:12+len(q)], q) {
		return errors.New("question not echoed")
	}
	qname := q[:len(q)-4]
	off := 12 + len(q)
	for i := 0; i < answersPerReply; i++ {
		n, err := ownerLen(resp, off, qname)
		if err != nil {
			return fmt.Errorf("answer %d: %w", i, err)
		}
		off += n
		if len(resp) < off+10 {
			return errShort
		}
		typ := binary.BigEndian.Uint16(resp[off:])
		class := binary.BigEndian.Uint16(resp[off+2:])
		ttl := binary.BigEndian.Uint32(resp[off+4:])
		rdlen := int(binary.BigEndian.Uint16(resp[off+8:]))
		off += 10
		if typ != typeA || class != classIN || rdlen != 4 {
			return fmt.Errorf("answer %d: type %d class %d rdlen %d", i, typ, class, rdlen)
		}
		if ttl > o.maxTTL {
			return fmt.Errorf("answer %d: ttl %d above zone ttl %d", i, ttl, o.maxTTL)
		}
		if len(resp) < off+4 {
			return errShort
		}
		addr := netip.AddrFrom4([4]byte(resp[off : off+4]))
		if !o.benign[addr] {
			return fmt.Errorf("answer %d: %v is not a pool address", i, addr)
		}
		off += 4
	}
	return nil
}

// ownerLen returns the encoded length of the answer owner name at off,
// which must be the queried name: a pointer to the question (offset 12)
// or the name written out in full.
func ownerLen(resp []byte, off int, qname []byte) (int, error) {
	if len(resp) < off+2 {
		return 0, errShort
	}
	if resp[off]&0xc0 == 0xc0 {
		if ptr := binary.BigEndian.Uint16(resp[off:]) & 0x3fff; ptr != 12 {
			return 0, fmt.Errorf("owner pointer %d", ptr)
		}
		return 2, nil
	}
	if len(resp) < off+len(qname) || !bytes.EqualFold(resp[off:off+len(qname)], qname) {
		return 0, errors.New("owner is not the queried name")
	}
	return len(qname), nil
}

// cannedAnswer pre-encodes the answer section the null responder sends:
// answersPerReply A records pointing at the question, cycling through
// the pool addresses.
func cannedAnswer(addrs []netip.Addr, ttl uint32) []byte {
	var b []byte
	for i := 0; i < answersPerReply; i++ {
		b = append(b, 0xc0, 12)
		b = binary.BigEndian.AppendUint16(b, typeA)
		b = binary.BigEndian.AppendUint16(b, classIN)
		b = binary.BigEndian.AppendUint32(b, ttl)
		b = binary.BigEndian.AppendUint16(b, 4)
		a := addrs[i%len(addrs)].As4()
		b = append(b, a[:]...)
	}
	return b
}

// appendCanned builds the null responder's reply to query into dst: the
// query's ID and question, then the canned answer section. It returns
// nil for anything that is not a one-question query.
func appendCanned(dst, query, answer []byte) []byte {
	if len(query) < 12 || query[2]&0x80 != 0 || binary.BigEndian.Uint16(query[4:]) != 1 {
		return nil
	}
	end := 12
	for end < len(query) && query[end] != 0 {
		end += int(query[end]) + 1
	}
	end += 5 // root label, type, class
	if end > len(query) {
		return nil
	}
	dst = append(dst, query[0], query[1], 0x81, 0x80, 0, 1)
	dst = binary.BigEndian.AppendUint16(dst, answersPerReply)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, query[12:end]...)
	return append(dst, answer...)
}

// qnameOf extracts the question name of a wire query as a dotted,
// lower-case string ("" when the message is malformed).
func qnameOf(msg []byte) string {
	if len(msg) < 13 {
		return ""
	}
	var sb strings.Builder
	for off := 12; off < len(msg); {
		n := int(msg[off])
		if n == 0 {
			return strings.ToLower(sb.String())
		}
		if n&0xc0 != 0 || off+1+n > len(msg) {
			return ""
		}
		sb.Write(msg[off+1 : off+1+n])
		sb.WriteByte('.')
		off += 1 + n
	}
	return ""
}
