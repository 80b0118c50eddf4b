package main

import (
	"net"
	"strings"
	"testing"
)

func TestRunRequiresResolvers(t *testing.T) {
	err := run(nil)
	if err == nil {
		t.Fatal("run without resolvers succeeded")
	}
	if !strings.Contains(err.Error(), "-resolver") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsUnknownFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunRejectsBadEngineFlagValues(t *testing.T) {
	// Non-duration value for a duration flag must fail at parse time.
	if err := run([]string{"-resolver", "https://r.test/dns-query", "-stale-while-revalidate", "bogus"}); err == nil {
		t.Fatal("bad -stale-while-revalidate accepted")
	}
	if err := run([]string{"-resolver", "https://r.test/dns-query", "-hedge-delay", "nope"}); err == nil {
		t.Fatal("bad -hedge-delay accepted")
	}
}

func TestRunRejectsUnusableAdminAddr(t *testing.T) {
	// An explicitly requested -admin address that cannot be bound must
	// surface as a startup error, not a silently missing observability
	// server. Occupy a port to guarantee the bind fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = run([]string{"-resolver", "https://r.test/dns-query", "-admin", ln.Addr().String()})
	if err == nil {
		t.Fatal("occupied -admin address accepted")
	}
	if !strings.Contains(err.Error(), "admin listen") {
		t.Fatalf("err = %v", err)
	}
}

func TestVersionFlagExitsBeforeResolverValidation(t *testing.T) {
	// -version must print and exit cleanly even without any -resolver,
	// like --help: it is a build-identity query, not a serving run.
	if err := run([]string{"-version"}); err != nil {
		t.Fatalf("run(-version) = %v", err)
	}
}

func TestRunRejectsBadRefreshFlags(t *testing.T) {
	if err := run([]string{"-resolver", "https://r.test/dns-query", "-refresh-ahead", "bogus"}); err == nil {
		t.Fatal("bad -refresh-ahead accepted")
	}
	if err := run([]string{"-resolver", "https://r.test/dns-query", "-stale-while-revalidate", "nope"}); err == nil {
		t.Fatal("bad -stale-while-revalidate accepted")
	}
	// An out-of-range fraction must be rejected by the engine at startup.
	if err := run([]string{"-resolver", "https://r.test/dns-query", "-refresh-ahead", "1.5", "-admin", ""}); err == nil {
		t.Fatal("-refresh-ahead 1.5 accepted")
	}
}

func TestRunRejectsEncryptedListenersWithoutIdentity(t *testing.T) {
	// -doh-addr / -dot-addr without -tls-cert/-tls-key or
	// -tls-self-signed must fail at startup, not serve unauthenticated.
	err := run([]string{"-resolver", "https://r.test/dns-query", "-admin", "",
		"-doh-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "TLS") {
		t.Fatalf("err = %v, want TLS identity requirement", err)
	}
	err = run([]string{"-resolver", "https://r.test/dns-query", "-admin", "",
		"-dot-addr", "127.0.0.1:0", "-tls-cert", "/only/half/of/it.pem"})
	if err == nil {
		t.Fatal("-tls-cert without -tls-key accepted")
	}
}

func TestRunRejectsConflictingTLSIdentitySources(t *testing.T) {
	// -tls-self-signed alongside -tls-cert/-tls-key must be rejected:
	// silently preferring one would serve a certificate the operator
	// did not choose.
	err := run([]string{"-resolver", "https://r.test/dns-query", "-admin", "",
		"-doh-addr", "127.0.0.1:0", "-tls-self-signed",
		"-tls-cert", "/some/cert.pem", "-tls-key", "/some/key.pem"})
	if err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("err = %v, want identity-source conflict", err)
	}
}

func TestRunRejectsTLSFlagsWithoutEncryptedListener(t *testing.T) {
	// TLS identity flags without -doh-addr/-dot-addr would be silently
	// ignored; the daemon must name the real missing input instead.
	for _, args := range [][]string{
		{"-tls-self-signed"},
		{"-tls-ca-out", t.TempDir() + "/ca.pem"},
		{"-tls-cert", "/some/cert.pem", "-tls-key", "/some/key.pem"},
	} {
		err := run(append([]string{"-resolver", "https://r.test/dns-query", "-admin", ""}, args...))
		if err == nil || !strings.Contains(err.Error(), "-doh-addr or -dot-addr") {
			t.Fatalf("args %v: err = %v, want encrypted-listener requirement", args, err)
		}
	}
}

func TestResolverListAccumulates(t *testing.T) {
	var rl resolverList
	for _, u := range []string{"u1", "u2", "u3"} {
		if err := rl.Set(u); err != nil {
			t.Fatal(err)
		}
	}
	if len(rl) != 3 {
		t.Fatalf("len = %d", len(rl))
	}
}
