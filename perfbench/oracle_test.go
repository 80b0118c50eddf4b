package main

import (
	"encoding/binary"
	"math/rand"
	"net"
	"net/netip"
	"testing"
	"time"

	"dohpool/internal/attack"
)

var benign = []netip.Addr{
	netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"),
	netip.MustParseAddr("192.0.2.3"), netip.MustParseAddr("192.0.2.4"),
}

const (
	warmName = "pool.ntppool.test."
	testName = "pool-0.ntppool.test."
)

// forgedAnswer is the answer section a pool with one compromised
// resolver in three would carry: a third of the addresses are the
// attacker's.
func forgedAnswer() []byte {
	addrs := append(append([]netip.Addr(nil), benign[:2]...), attack.AttackerAddrs(1)...)
	return cannedAnswer(addrs, 150)
}

// badResponder answers warmName correctly and every other query with
// mutate applied to the correct reply.
func badResponder(t *testing.T, mutate func(reply []byte) []byte) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		_ = pc.Close()
		<-done
	})
	good := cannedAnswer(benign, 150)
	go func() {
		defer close(done)
		buf := make([]byte, 512)
		for {
			n, addr, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			reply := appendCanned(nil, buf[:n], good)
			if qnameOf(buf[:n]) != warmName {
				reply = mutate(reply)
			}
			_, _ = pc.WriteTo(reply, addr)
		}
	}()
	return pc.LocalAddr().String()
}

func TestOracleCountsBadAnswersAsFailed(t *testing.T) {
	cases := map[string]func([]byte) []byte{
		"forged attack payload": func(r []byte) []byte {
			qlen := len(question(testName))
			return append(r[:12+qlen], forgedAnswer()...)
		},
		"wrong id": func(r []byte) []byte {
			binary.BigEndian.PutUint16(r, binary.BigEndian.Uint16(r)+1)
			return r
		},
		"short answer": func(r []byte) []byte {
			binary.BigEndian.PutUint16(r[6:], answersPerReply-1)
			return r[:len(r)-16]
		},
		"truncated message": func(r []byte) []byte { return r[:len(r)-3] },
		"servfail": func(r []byte) []byte {
			r[3] |= 2
			return r
		},
		"ttl above zone ttl": func(r []byte) []byte {
			off := 12 + len(question(testName)) + 6
			binary.BigEndian.PutUint32(r[off:], 151)
			return r
		},
	}
	orc := newOracle(benign, 150)
	only := func(*rand.Rand) picker {
		return func() (string, bool) { return testName, true }
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			addr := badResponder(t, mutate)
			fails := &failures{}
			ph := phase{proto: "udp", ep: endpoints{udp: addr}, dur: 50 * time.Millisecond, seed: 1, picks: only, warmName: warmName}
			st, err := runPhase(ph, orc, fails)
			if err != nil {
				t.Fatal(err)
			}
			if st.attempted == 0 || st.failed != st.attempted || st.samples() != 0 {
				t.Fatalf("attempted %d, failed %d, validated %d: want every answer failed",
					st.attempted, st.failed, st.samples())
			}
			if len(fails.reasons) == 0 {
				t.Fatal("no failure reason recorded")
			}
		})
	}
}

func TestOracleAcceptsGoodAnswer(t *testing.T) {
	q := question(testName)
	reply := appendCanned(nil, appendQuery(nil, 7, q), cannedAnswer(benign, 150))
	if err := newOracle(benign, 150).check(reply, 7, q); err != nil {
		t.Fatal(err)
	}
}
