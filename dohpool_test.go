package dohpool

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"net/http"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dohpool/internal/attack"
	"dohpool/internal/dnswire"
	"dohpool/internal/doh"
	"dohpool/internal/testbed"
	"dohpool/internal/testpki"
	"dohpool/internal/transport"
)

// startTB boots a Figure 1 testbed and returns a public Client over it.
func startTB(t *testing.T, cfg testbed.Config, clientCfg Config) (*testbed.Testbed, *Client) {
	t.Helper()
	tb, err := testbed.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tb.Close() })

	clientCfg.TLSConfig = tb.CA.ClientTLS()
	if clientCfg.Resolvers == nil {
		for _, ep := range tb.Endpoints {
			clientCfg.Resolvers = append(clientCfg.Resolvers, Resolver{Name: ep.Name, URL: ep.URL})
		}
	}
	client, err := New(clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb, client
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoResolvers) {
		t.Errorf("empty config: %v", err)
	}
	if _, err := New(Config{Resolvers: []Resolver{{Name: "x"}}}); err == nil {
		t.Error("resolver without URL accepted")
	}
}

func TestLookupPoolEndToEnd(t *testing.T) {
	tb, client := startTB(t, testbed.Config{}, Config{})
	if client.ResolverCount() != 3 {
		t.Fatalf("N = %d", client.ResolverCount())
	}
	pool, err := client.LookupPool(testCtx(t), tb.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if pool.TruncateLength != 4 || len(pool.Addrs) != 12 {
		t.Fatalf("K=%d |pool|=%d, want 4/12", pool.TruncateLength, len(pool.Addrs))
	}
	if len(pool.PerResolver) != 3 {
		t.Fatalf("PerResolver = %d", len(pool.PerResolver))
	}
	for _, pr := range pool.PerResolver {
		if pr.Err != nil {
			t.Errorf("resolver %s: %v", pr.Resolver.Name, pr.Err)
		}
		if pr.RTT <= 0 {
			t.Errorf("resolver %s: RTT %v", pr.Resolver.Name, pr.RTT)
		}
	}
}

func TestLookupPoolWithMajority(t *testing.T) {
	tb, client := startTB(t,
		testbed.Config{
			Adversary: testbed.AdversaryResolver,
			Plan:      attack.FixedPlan(3, 0),
		},
		Config{WithMajority: true})
	pool, err := client.LookupPool(testCtx(t), tb.Domain())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range pool.Majority {
		if attack.IsAttackerAddr(a) {
			t.Fatalf("attacker address %v passed majority filter", a)
		}
	}
	if len(pool.Majority) == 0 {
		t.Fatal("majority filter removed everything")
	}
}

func TestPoolIsACopy(t *testing.T) {
	tb, client := startTB(t, testbed.Config{}, Config{})
	pool, err := client.LookupPool(testCtx(t), tb.Domain())
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the returned pool must not corrupt later lookups.
	for i := range pool.Addrs {
		pool.Addrs[i] = attack.AttackerAddr(0)
	}
	pool2, err := client.LookupPool(testCtx(t), tb.Domain())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range pool2.Addrs {
		if attack.IsAttackerAddr(a) {
			t.Fatal("pools share storage")
		}
	}
}

func TestServeFrontend(t *testing.T) {
	tb, client := startTB(t, testbed.Config{}, Config{})
	fe, err := client.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Close() })

	// A legacy stub resolver (plain UDP DNS) queries the frontend.
	query, err := dnswire.NewQuery(tb.Domain(), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&transport.UDP{}).Exchange(testCtx(t), query, fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.AnswerAddrs()); got != 12 {
		t.Fatalf("frontend answered %d addrs, want the 12-entry pool", got)
	}
	if fe.Served() != 1 {
		t.Errorf("Served = %d", fe.Served())
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fe.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := net.ResolveUDPAddr("udp", fe.Addr()); err != nil {
		t.Fatal(err)
	}
}

func TestQuorumSurfacedThroughFacade(t *testing.T) {
	tb, client := startTB(t, testbed.Config{}, Config{})
	// Kill one DoH server, strict quorum must fail with ErrQuorum.
	if err := tb.DoH[2].Close(); err != nil {
		t.Fatal(err)
	}
	_, err := client.LookupPool(testCtx(t), tb.Domain())
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("err = %v, want ErrQuorum", err)
	}
}

func TestEmptyAnswerSurfacedThroughFacade(t *testing.T) {
	tb, client := startTB(t,
		testbed.Config{
			Adversary: testbed.AdversaryResolver,
			Plan:      attack.FixedPlan(3, 1),
			Payload:   attack.PayloadEmpty,
		}, Config{})
	_, err := client.LookupPool(testCtx(t), tb.Domain())
	if !errors.Is(err, ErrEmptyAnswer) {
		t.Fatalf("err = %v, want ErrEmptyAnswer", err)
	}
}

func TestDualStackFacade(t *testing.T) {
	tb, client := startTB(t, testbed.Config{}, Config{DualStack: DualStackIndividual})
	// The testbed zone has no AAAA records; dual-stack must fall back to
	// the v4 pool.
	pool, err := client.LookupPoolDualStack(testCtx(t), tb.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Addrs) != 12 {
		t.Fatalf("dual-stack pool = %d", len(pool.Addrs))
	}
	// Direct IPv6 lookup fails (empty answers → ErrEmptyAnswer).
	if _, err := client.LookupPoolIPv6(testCtx(t), tb.Domain()); !errors.Is(err, ErrEmptyAnswer) {
		t.Fatalf("v6 lookup: %v", err)
	}
}

func TestGETMethodWorks(t *testing.T) {
	tb, client := startTB(t, testbed.Config{}, Config{UseGET: true})
	pool, err := client.LookupPool(testCtx(t), tb.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Addrs) != 12 {
		t.Fatalf("pool = %d", len(pool.Addrs))
	}
}

// countingDoHTransport answers RFC 8484 POST exchanges in-process,
// counting every exchange that would have hit the network.
type countingDoHTransport struct {
	exchanges atomic.Int64
	ttl       uint32
	addrs     []netip.Addr
}

func (c *countingDoHTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.exchanges.Add(1)
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	query, err := dnswire.Decode(body)
	if err != nil {
		return nil, err
	}
	resp := dnswire.NewResponse(query)
	q := query.Questions[0]
	for _, a := range c.addrs {
		if (q.Type == dnswire.TypeA) == a.Is4() {
			resp.Answers = append(resp.Answers, dnswire.AddressRecord(q.Name, a, c.ttl))
		}
	}
	wire, err := resp.Encode()
	if err != nil {
		return nil, err
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/dns-message"}},
		Body:       io.NopCloser(bytes.NewReader(wire)),
	}, nil
}

// TestLookupPoolCachedWithinTTL is the PR's acceptance criterion at the
// public API: a repeated LookupPool for the same domain within TTL
// performs zero network exchanges.
func TestLookupPoolCachedWithinTTL(t *testing.T) {
	rt := &countingDoHTransport{ttl: 300, addrs: []netip.Addr{
		netip.MustParseAddr("192.0.2.1"),
		netip.MustParseAddr("192.0.2.2"),
	}}
	client, err := New(Config{
		Resolvers: []Resolver{
			{Name: "r0", URL: "https://r0.test/dns-query"},
			{Name: "r1", URL: "https://r1.test/dns-query"},
			{Name: "r2", URL: "https://r2.test/dns-query"},
		},
		HTTPClient: &http.Client{Transport: rt},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := testCtx(t)

	pool, err := client.LookupPool(ctx, "pool.ntp.org.")
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Addrs) != 6 {
		t.Fatalf("pool = %d addrs", len(pool.Addrs))
	}
	after := rt.exchanges.Load()
	if after != 3 {
		t.Fatalf("first lookup = %d exchanges, want 3", after)
	}

	for i := 0; i < 10; i++ {
		if _, err := client.LookupPool(ctx, "pool.ntp.org."); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.exchanges.Load(); got != after {
		t.Fatalf("repeat lookups within TTL performed %d network exchanges, want 0", got-after)
	}

	if st := client.CacheStats(); st.Hits != 10 || st.HitRate() < 0.9 {
		t.Errorf("cache stats = %+v", st)
	}
	health := client.ResolverHealth()
	if len(health) != 3 {
		t.Fatalf("health entries = %d", len(health))
	}
	for _, h := range health {
		if h.Successes != 1 || h.Failures != 0 || h.CircuitOpen {
			t.Errorf("resolver %s health = %+v", h.Resolver.Name, h)
		}
		if h.EWMARTT <= 0 {
			t.Errorf("resolver %s has no EWMA RTT", h.Resolver.Name)
		}
	}
}

// TestCacheDisabledConfig verifies Cache.Size < 0 restores per-call
// fan-out at the public API.
func TestCacheDisabledConfig(t *testing.T) {
	rt := &countingDoHTransport{ttl: 300, addrs: []netip.Addr{netip.MustParseAddr("192.0.2.1")}}
	client, err := New(Config{
		Resolvers:  []Resolver{{Name: "r0", URL: "https://r0.test/dns-query"}},
		Cache:      CacheConfig{Size: -1},
		HTTPClient: &http.Client{Transport: rt},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := testCtx(t)
	for i := 0; i < 3; i++ {
		if _, err := client.LookupPool(ctx, "pool.test."); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.exchanges.Load(); got != 3 {
		t.Fatalf("uncached exchanges = %d, want 3", got)
	}
}

func TestBuildInfoGaugeRegistered(t *testing.T) {
	_, client := startTB(t, testbed.Config{}, Config{})
	defer client.Close()
	var b bytes.Buffer
	if err := client.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, MetricBuildInfo+`{version=`) {
		t.Errorf("metrics missing %s gauge:\n%s", MetricBuildInfo, out)
	}
	version, revision := BuildInfo()
	if version == "" || revision == "" {
		t.Errorf("BuildInfo = %q, %q; want non-empty", version, revision)
	}
}

// TestRefreshAheadThroughFacade checks the always-warm knobs wire
// through the public API: a client with refresh-ahead on still answers
// lookups (the timing behaviour itself is covered in internal/core),
// and an out-of-range fraction is rejected at construction.
func TestRefreshAheadThroughFacade(t *testing.T) {
	tb, client := startTB(t, testbed.Config{}, Config{
		Refresh: RefreshConfig{Ahead: 0.8, MinHits: 1},
		Cache:   CacheConfig{Shards: 4},
	})
	defer client.Close()
	ctx := testCtx(t)
	pool, err := client.LookupPool(ctx, tb.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Addrs) == 0 {
		t.Fatal("empty pool")
	}
	if _, err := New(Config{
		Resolvers: []Resolver{{Name: "r", URL: "https://r.test/dns-query"}},
		Refresh:   RefreshConfig{Ahead: 1.5},
	}); err == nil {
		t.Error("Refresh.Ahead > 1 accepted")
	}
}

func TestRecommendResolverCount(t *testing.T) {
	n, err := RecommendResolverCount(0.1, 0.5, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("N = %d, want 9", n)
	}
	if _, err := RecommendResolverCount(0.6, 0.5, 0.01); err == nil {
		t.Fatal("unreachable target accepted")
	}
}

func TestPaddingThroughFacade(t *testing.T) {
	tb, client := startTB(t, testbed.Config{}, Config{UsePadding: true})
	pool, err := client.LookupPool(testCtx(t), tb.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Addrs) != 12 {
		t.Fatalf("padded lookup pool = %d", len(pool.Addrs))
	}
}

// TestAdminServerEndToEnd is the observability acceptance criterion: a
// Client with Serve.AdminAddr set serves Prometheus metrics covering engine
// lookups, cache effectiveness, resolver health and frontend traffic,
// plus breaker-aware readiness and the cached-pool dump, all while real
// DNS queries flow through the frontend.
func TestAdminServerEndToEnd(t *testing.T) {
	tb, client := startTB(t, testbed.Config{}, Config{Serve: ServeConfig{AdminAddr: "127.0.0.1:0"}})
	t.Cleanup(func() { _ = client.Close() })
	addr := client.AdminAddr()
	if addr == "" {
		t.Fatal("AdminAddr empty with admin server configured")
	}

	fe, err := client.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Close() })

	// Traffic: one cache-filling query plus one wire-cache fast-path hit
	// over UDP, then one engine cache hit over TCP (the UDP repeat is
	// answered from the pre-encoded wire cache and never reaches the
	// engine).
	for i := 0; i < 2; i++ {
		query, err := dnswire.NewQuery(tb.Domain(), dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&transport.UDP{}).Exchange(testCtx(t), query, fe.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	tcpQuery, err := dnswire.NewQuery(tb.Domain(), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&transport.TCP{}).Exchange(testCtx(t), tcpQuery, fe.Addr()); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		`dohpool_engine_lookups_total{outcome="network"} 1`,
		// The repeat UDP query and the TCP query are both wire-cache
		// hits, so the engine's slow path only ever ran the generating
		// miss.
		`dohpool_engine_lookups_total{outcome="cache_hit"} 0`,
		"dohpool_cache_hits_total 0",
		"dohpool_cache_misses_total 1",
		"dohpool_wire_cache_hits_total 2",
		"dohpool_wire_cache_misses_total 1",
		"dohpool_wire_cache_entries 1",
		`dohpool_frontend_udp_socket_packets_total{socket="0"}`,
		`dohpool_frontend_write_errors_total{proto="udp"} 0`,
		`result="ok"} 1`, // per-resolver exchange counters
		"dohpool_resolver_rtt_seconds{",
		`dohpool_frontend_queries_total{proto="udp"} 2`,
		`dohpool_frontend_queries_total{proto="tcp"} 1`,
		`dohpool_frontend_responses_total{rcode="NOERROR"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}

	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d (%s)", code, body)
	}
	if !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz body = %s", body)
	}

	code, body = get("/poolz")
	if code != http.StatusOK {
		t.Fatalf("GET /poolz = %d", code)
	}
	if !strings.Contains(body, tb.Domain()) {
		t.Errorf("/poolz does not mention %q: %s", tb.Domain(), body)
	}

	// WritePrometheus serves the same exposition for embedders.
	var buf bytes.Buffer
	if err := client.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dohpool_engine_lookups_total") {
		t.Error("WritePrometheus missing engine metrics")
	}

	// Close stops the admin server; the port must refuse connections.
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := (&http.Client{Timeout: time.Second}).Get("http://" + addr + "/healthz"); err == nil {
		t.Error("admin server still answering after Close")
	}
}

// TestEncryptedServingEndToEnd is the tentpole acceptance test: a
// chaos-attacked engine (resolver 0 forging every exchange) serves the
// same consensus pool over all four transports — plain UDP, plain TCP,
// RFC 7858 DoT and RFC 8484 DoH — out of one warm cache. Every
// transport must return the identical pool, the encrypted listeners
// must pay no second generation for a domain already cached via UDP,
// and the admin endpoints must report the listener state.
func TestEncryptedServingEndToEnd(t *testing.T) {
	tb, client := startTB(t, testbed.Config{}, Config{
		Chaos: ChaosConfig{Payload: "replace", Resolvers: []int{0}, Prob: 1},
		Serve: ServeConfig{
			DoHAddr:       "127.0.0.1:0",
			DoTAddr:       "127.0.0.1:0",
			TLSSelfSigned: true,
			AdminAddr:     "127.0.0.1:0",
		},
	})
	t.Cleanup(func() { _ = client.Close() })

	fe, err := client.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Close() })
	if fe.DoHAddr() == "" || fe.DoTAddr() == "" {
		t.Fatalf("encrypted listeners missing: doh=%q dot=%q", fe.DoHAddr(), fe.DoTAddr())
	}

	// Clients trust the daemon's self-signed serving CA — a different
	// trust root than the testbed's resolver CA, exactly like a real
	// deployment.
	caPEM := client.ServingCAPEM()
	if caPEM == nil {
		t.Fatal("ServingCAPEM nil in self-signed mode")
	}
	roots, err := testpki.PoolFromPEM(caPEM)
	if err != nil {
		t.Fatal(err)
	}
	serveTLS := &tls.Config{RootCAs: roots, MinVersion: tls.VersionTLS12}

	ctx := testCtx(t)
	answers := func(resp *dnswire.Message, err error) []string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.RCode != dnswire.RCodeSuccess {
			t.Fatalf("rcode = %v", resp.Header.RCode)
		}
		var out []string
		for _, a := range resp.AnswerAddrs() {
			out = append(out, a.String())
		}
		sort.Strings(out)
		if len(out) == 0 {
			t.Fatal("empty answer")
		}
		return out
	}
	newQuery := func() *dnswire.Message {
		t.Helper()
		q, err := dnswire.NewQuery(tb.Domain(), dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	// UDP warms the cache; every other transport must be a cache hit.
	got := map[string][]string{}
	got["udp"] = answers((&transport.UDP{}).Exchange(ctx, newQuery(), fe.Addr()))
	got["tcp"] = answers((&transport.TCP{}).Exchange(ctx, newQuery(), fe.Addr()))
	got["dot"] = answers((&transport.DoT{TLSConfig: serveTLS}).Exchange(ctx, newQuery(), fe.DoTAddr()))
	dohClient := doh.NewClient(doh.WithTLSConfig(serveTLS))
	got["doh"] = answers(dohClient.Query(ctx, "https://"+fe.DoHAddr()+doh.DefaultPath, tb.Domain(), dnswire.TypeA))

	for proto, addrs := range got {
		if !slices.Equal(addrs, got["udp"]) {
			t.Errorf("%s answers %v differ from udp answers %v", proto, addrs, got["udp"])
		}
	}

	// One generation total: the three encrypted/stream exchanges were
	// answered from the wire cache warmed by the UDP query, so the pool
	// cache records exactly the one generating miss — a second
	// generation would surface as another miss, and a slow-path stream
	// serve would surface as a pool-cache hit.
	cs := client.CacheStats()
	if cs.Misses != 1 || cs.Hits != 0 {
		t.Errorf("cache stats = %+v, want 1 miss (udp generation) and 0 hits (tcp/dot/doh served from the wire cache)", cs)
	}

	// The admin surface reports the four listeners on /healthz and
	// /poolz.
	for _, path := range []string{"/healthz", "/poolz"} {
		resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + client.AdminAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for proto, addr := range map[string]string{
			"udp": fe.Addr(), "tcp": fe.Addr(), "dot": fe.DoTAddr(), "doh": fe.DoHAddr(),
		} {
			if !strings.Contains(string(body), `"proto": "`+proto+`"`) {
				t.Errorf("%s missing %s listener: %s", path, proto, body)
			}
			if !strings.Contains(string(body), addr) {
				t.Errorf("%s missing address %s: %s", path, addr, body)
			}
		}
	}
}

func TestAdminListenFailureIsMatchable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = New(Config{
		Resolvers: []Resolver{{Name: "r", URL: "https://r.test/dns-query"}},
		Serve:     ServeConfig{AdminAddr: ln.Addr().String()},
	})
	if !errors.Is(err, ErrAdminListen) {
		t.Fatalf("err = %v, want ErrAdminListen", err)
	}
}

func TestNetChaosThroughFacade(t *testing.T) {
	// Delay-only network chaos: every resolver exchange pays the
	// injected latency but consensus still succeeds, and the netchaos
	// counters surface on /metrics-style exposition.
	tb, client := startTB(t, testbed.Config{}, Config{
		Chaos: ChaosConfig{Net: NetChaosConfig{Delay: 10 * time.Millisecond}},
	})
	pool, err := client.LookupPool(testCtx(t), tb.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Addrs) == 0 {
		t.Fatal("empty pool under delay-only net chaos")
	}
	var b strings.Builder
	if err := client.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, MetricNetChaosDelayed) {
		t.Fatalf("exposition missing %s:\n%s", MetricNetChaosDelayed, out)
	}
	for _, pr := range pool.PerResolver {
		if pr.RTT < 10*time.Millisecond {
			t.Errorf("resolver %s: RTT %v, must include the injected 10ms", pr.Resolver.Name, pr.RTT)
		}
	}
}

func TestNetChaosDropMinorityStillConverges(t *testing.T) {
	// Hard-drop one resolver of three: its exchanges time out, but with
	// MinResolvers=2 the remaining majority still generates a pool.
	tb, client := startTB(t, testbed.Config{}, Config{
		MinResolvers: 2,
		QueryTimeout: 500 * time.Millisecond,
		Chaos: ChaosConfig{
			Net: NetChaosConfig{DropProb: 1, Resolvers: []int{0}},
		},
	})
	pool, err := client.LookupPool(testCtx(t), tb.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Addrs) == 0 {
		t.Fatal("empty pool")
	}
	var sawDrop bool
	for _, pr := range pool.PerResolver {
		if pr.Err != nil {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Fatal("no resolver reported the injected drop")
	}
}

func TestNetChaosBadResolverIndex(t *testing.T) {
	_, err := New(Config{
		Resolvers: []Resolver{{Name: "a", URL: "https://a/dns-query"}},
		Chaos:     ChaosConfig{Net: NetChaosConfig{DropProb: 1, Resolvers: []int{5}}},
	})
	if err == nil {
		t.Fatal("out-of-range net-chaos resolver index accepted")
	}
}
