package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohpool/internal/dnscache"
	"dohpool/internal/dnswire"
)

// testClock is a mutex-guarded fake clock shared between the engine, the
// cache and the refresher.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1700000000, 0)} }

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// hookQuerier runs hook before delegating each exchange; the hook may
// block (to orchestrate mid-refresh races) or fail (to simulate losing
// the resolver quorum).
type hookQuerier struct {
	inner Querier
	mu    sync.Mutex
	hook  func(ctx context.Context, name string) error
}

func (h *hookQuerier) setHook(fn func(ctx context.Context, name string) error) {
	h.mu.Lock()
	h.hook = fn
	h.mu.Unlock()
}

func (h *hookQuerier) Query(ctx context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error) {
	h.mu.Lock()
	hook := h.hook
	h.mu.Unlock()
	if hook != nil {
		if err := hook(ctx, name); err != nil {
			return nil, err
		}
	}
	return h.inner.Query(ctx, url, name, typ)
}

// refreshEngine builds an engine with refresh-ahead on and a scan loop
// parked on a huge interval, so tests drive scans deterministically via
// eng.refresher.scan().
func refreshEngine(t *testing.T, q Querier, clk *testClock, ecfg EngineConfig) *Engine {
	t.Helper()
	ecfg.Clock = clk.now
	if ecfg.RefreshAhead == 0 {
		ecfg.RefreshAhead = 0.8
	}
	if ecfg.RefreshInterval == 0 {
		ecfg.RefreshInterval = time.Hour
	}
	eng, err := NewEngine(Config{Resolvers: threeEndpoints(), Querier: q}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineRefreshAheadKeepsHotKeyWarm is the acceptance criterion: with
// refresh-ahead enabled, a hot key's hit rate stays 100% across a TTL
// expiry — the refresher regenerates the pool in the background before it
// dies, and no lookup after warmup ever generates inline.
func TestEngineRefreshAheadKeepsHotKeyWarm(t *testing.T) {
	clk := newTestClock()
	q := newCountingQuerier(30, threeResolverLists())
	eng := refreshEngine(t, q, clk, EngineConfig{RefreshMinHits: 1})
	ctx := context.Background()

	// Warmup: the only inline generation this test should ever see.
	if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	if eng.InlineGenerations() != 1 {
		t.Fatalf("inline generations after warmup = %d, want 1", eng.InlineGenerations())
	}

	// 25s into a 30s TTL: past the 0.8 refresh-ahead threshold.
	clk.advance(25 * time.Second)
	if launched := eng.refresher.scan(); launched != 1 {
		t.Fatalf("scan launched %d refreshes, want 1", launched)
	}
	waitFor(t, "background refresh win", func() bool { return eng.RefreshWins() == 1 })
	if got := q.total.Load(); got != 6 {
		t.Fatalf("exchanges after refresh = %d, want 6", got)
	}

	// Cross the original expiry (t=31s > 30s). The refreshed entry was
	// stored at t=25s with a fresh 30s TTL, so every lookup must still
	// hit cache — zero inline generations, zero misses.
	missesBefore := eng.CacheStats().Misses
	clk.advance(6 * time.Second)
	for i := 0; i < 10; i++ {
		p, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Addrs) != 6 {
			t.Fatalf("pool = %d addrs", len(p.Addrs))
		}
	}
	st := eng.CacheStats()
	if st.Misses != missesBefore {
		t.Fatalf("misses across TTL expiry = %d (was %d); hit rate broke", st.Misses, missesBefore)
	}
	if eng.InlineGenerations() != 1 {
		t.Fatalf("inline generations across TTL expiry = %d, want 1 (refresh-ahead should absorb them)", eng.InlineGenerations())
	}
	if eng.BackgroundGenerations() != 1 {
		t.Errorf("background generations = %d, want 1", eng.BackgroundGenerations())
	}
	if eng.NetworkRuns() != 2 {
		t.Errorf("NetworkRuns = %d, want 2", eng.NetworkRuns())
	}

	pools := eng.CachedPools()
	if len(pools) != 1 {
		t.Fatalf("cached pools = %d", len(pools))
	}
	if pools[0].Refreshes != 1 || pools[0].LastRefresh != dnscache.RefreshOK {
		t.Errorf("refresh state = %d/%v, want 1/ok", pools[0].Refreshes, pools[0].LastRefresh)
	}
	if pools[0].Hits < 15 {
		t.Errorf("hits = %d, want >= 15", pools[0].Hits)
	}
}

// TestRefresherSkipsColdKeys: the popularity threshold leaves rarely-read
// entries to expire instead of burning fan-outs keeping them warm.
func TestRefresherSkipsColdKeys(t *testing.T) {
	clk := newTestClock()
	q := newCountingQuerier(30, threeResolverLists())
	eng := refreshEngine(t, q, clk, EngineConfig{RefreshMinHits: 3})
	ctx := context.Background()

	// hot gets 3 cache hits, cold none.
	for i := 0; i < 4; i++ {
		if _, err := eng.Lookup(ctx, "hot.test.", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Lookup(ctx, "cold.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}

	clk.advance(25 * time.Second)
	if launched := eng.refresher.scan(); launched != 1 {
		t.Fatalf("scan launched %d refreshes, want 1 (hot only)", launched)
	}
	waitFor(t, "hot refresh", func() bool { return eng.RefreshWins() == 1 })
	for _, p := range eng.CachedPools() {
		switch {
		case p.Key == "hot.test.|1" && p.Refreshes != 1:
			t.Errorf("hot refreshes = %d, want 1", p.Refreshes)
		case p.Key == "cold.test.|1" && p.Refreshes != 0:
			t.Errorf("cold refreshes = %d, want 0", p.Refreshes)
		}
	}
}

// TestRefresherIdleKeyFallsOffThePipeline: the popularity signal is hits
// since the last refresh, not lifetime hits — a key that was hot once
// must stop earning background refreshes when nobody reads it anymore,
// instead of being kept warm forever on ancient traffic.
func TestRefresherIdleKeyFallsOffThePipeline(t *testing.T) {
	clk := newTestClock()
	q := newCountingQuerier(30, threeResolverLists())
	eng := refreshEngine(t, q, clk, EngineConfig{RefreshMinHits: 1})
	ctx := context.Background()

	// Warm and read the key: qualifies for its first refresh.
	for i := 0; i < 3; i++ {
		if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(25 * time.Second)
	if launched := eng.refresher.scan(); launched != 1 {
		t.Fatalf("first scan launched %d, want 1", launched)
	}
	waitFor(t, "first refresh", func() bool { return eng.RefreshWins() == 1 })

	// Nobody reads the key again. At 80% of the refreshed entry's TTL it
	// is due but no longer popular: no refresh, the entry ages out.
	clk.advance(25 * time.Second)
	if launched := eng.refresher.scan(); launched != 0 {
		t.Fatalf("idle key still refreshed (%d launched)", launched)
	}
	if eng.RefreshAttempts() != 1 {
		t.Errorf("attempts = %d, want 1", eng.RefreshAttempts())
	}

	// One more read re-qualifies it.
	if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if launched := eng.refresher.scan(); launched != 1 {
		t.Fatalf("re-read key not refreshed (%d launched)", launched)
	}
	waitFor(t, "second refresh", func() bool { return eng.RefreshWins() == 2 })
}

// TestRefresherConcurrencyCap: a correlated expiry of many entries must
// not fan out to the resolvers all at once — launches are bounded per
// scan by RefreshConcurrency, the rest wait for a later scan.
func TestRefresherConcurrencyCap(t *testing.T) {
	clk := newTestClock()
	counting := newCountingQuerier(30, threeResolverLists())
	q := &hookQuerier{inner: counting}
	eng := refreshEngine(t, q, clk, EngineConfig{RefreshConcurrency: 2})
	ctx := context.Background()

	for _, name := range []string{"a.test.", "b.test.", "c.test.", "d.test."} {
		if _, err := eng.Lookup(ctx, name, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	// Block every refresh exchange so in-flight refreshes stay in flight.
	gate := make(chan struct{})
	q.setHook(func(ctx context.Context, name string) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	clk.advance(25 * time.Second) // all four due at once

	if launched := eng.refresher.scan(); launched != 2 {
		t.Fatalf("scan launched %d, want 2 (capped)", launched)
	}
	// While the two are blocked, another scan launches nothing.
	if launched := eng.refresher.scan(); launched != 0 {
		t.Fatalf("scan over the cap launched %d, want 0", launched)
	}
	close(gate)
	q.setHook(nil)
	waitFor(t, "first wave", func() bool { return eng.RefreshWins() == 2 })
	// Slots freed: the next scan picks up the remaining two.
	if launched := eng.refresher.scan(); launched != 2 {
		t.Fatalf("second wave launched %d, want 2", launched)
	}
	waitFor(t, "second wave", func() bool { return eng.RefreshWins() == 4 })
}

// TestRefresherUncacheableRefreshBacksOff: a refresh that succeeds but
// yields a TTL-0 (uncacheable) pool cannot replace the dying entry — it
// must count as a failure and back off, not be re-fetched every tick.
func TestRefresherUncacheableRefreshBacksOff(t *testing.T) {
	clk := newTestClock()
	q := newCountingQuerier(30, threeResolverLists())
	eng := refreshEngine(t, q, clk, EngineConfig{RefreshMinHits: 0, StaleWhileRevalidate: 5 * time.Minute})
	ctx := context.Background()

	if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	q.setTTL(0) // upstream flips to uncacheable answers

	clk.advance(25 * time.Second)
	if launched := eng.refresher.scan(); launched != 1 {
		t.Fatalf("scan launched %d, want 1", launched)
	}
	waitFor(t, "uncacheable refresh settles as failure", func() bool {
		return eng.RefreshFailures() == 1
	})
	// The old pool is still cached and, inside the backoff window, the
	// still-due key is left alone.
	if pools := eng.CachedPools(); len(pools) != 1 || pools[0].LastRefresh != dnscache.RefreshFailed {
		t.Fatalf("cached pools after uncacheable refresh = %+v", pools)
	}
	if launched := eng.refresher.scan(); launched != 0 {
		t.Fatalf("scan inside backoff launched %d, want 0", launched)
	}
}

// TestRefreshAheadRequiresCache: refresh-ahead with caching disabled is
// a configuration conflict, not a silent no-op.
func TestRefreshAheadRequiresCache(t *testing.T) {
	q := newCountingQuerier(30, threeResolverLists())
	if _, err := NewEngine(Config{Resolvers: threeEndpoints(), Querier: q},
		EngineConfig{CacheSize: -1, RefreshAhead: 0.8}); err == nil {
		t.Fatal("RefreshAhead with CacheSize -1 accepted")
	}
}

// TestRefresherQuorumLostKeepsStaleAndBacksOff: a background refresh that
// fails (resolvers down, quorum lost) must keep the cached pool serving,
// count the failure, and back the key off exponentially instead of
// hammering dead resolvers every scan.
func TestRefresherQuorumLostKeepsStaleAndBacksOff(t *testing.T) {
	clk := newTestClock()
	counting := newCountingQuerier(30, threeResolverLists())
	q := &hookQuerier{inner: counting}
	eng := refreshEngine(t, q, clk, EngineConfig{
		RefreshMinHits:       0,
		RefreshBackoff:       10 * time.Second,
		StaleWhileRevalidate: 5 * time.Minute,
	})
	ctx := context.Background()

	if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	q.setHook(func(context.Context, string) error { return errors.New("resolver down") })

	clk.advance(25 * time.Second)
	if launched := eng.refresher.scan(); launched != 1 {
		t.Fatalf("scan launched %d, want 1", launched)
	}
	waitFor(t, "refresh failure", func() bool { return eng.RefreshFailures() == 1 })

	// Stale pool kept, failure recorded against the entry.
	pools := eng.CachedPools()
	if len(pools) != 1 {
		t.Fatalf("pool dropped after failed refresh (%d cached)", len(pools))
	}
	if pools[0].LastRefresh != dnscache.RefreshFailed || pools[0].Refreshes != 1 {
		t.Errorf("refresh state = %d/%v, want 1/failed", pools[0].Refreshes, pools[0].LastRefresh)
	}

	// Within the backoff window nothing relaunches, even though the key
	// is (over)due.
	if launched := eng.refresher.scan(); launched != 0 {
		t.Fatalf("scan inside backoff launched %d, want 0", launched)
	}
	// Past the base backoff (10s): one more attempt, which fails again
	// and doubles the backoff to 20s.
	clk.advance(11 * time.Second)
	if launched := eng.refresher.scan(); launched != 1 {
		t.Fatalf("scan after backoff launched %d, want 1", launched)
	}
	waitFor(t, "second failure", func() bool { return eng.RefreshFailures() == 2 })
	clk.advance(11 * time.Second)
	if launched := eng.refresher.scan(); launched != 0 {
		t.Fatalf("scan inside doubled backoff launched %d, want 0", launched)
	}

	// The pool is now past its TTL but inside StaleWhileRevalidate: lookups still
	// answer (stale-while-revalidate), with no inline generation — and
	// the stale-triggered revalidation honours the refresher's backoff
	// instead of re-fanning-out to the broken resolvers on every hit.
	bgBefore := eng.BackgroundGenerations()
	p, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("stale lookup failed: %v", err)
	}
	if len(p.Addrs) != 6 {
		t.Fatalf("stale pool = %d addrs", len(p.Addrs))
	}
	if eng.InlineGenerations() != 1 {
		t.Errorf("inline generations = %d, want 1", eng.InlineGenerations())
	}
	if got := eng.BackgroundGenerations(); got != bgBefore {
		t.Errorf("stale hit inside backoff ran %d extra generation(s)", got-bgBefore)
	}

	// Resolvers recover: the next eligible attempt wins and clears the
	// backoff streak.
	q.setHook(nil)
	clk.advance(11 * time.Second)
	if launched := eng.refresher.scan(); launched != 1 {
		t.Fatalf("recovery scan launched %d, want 1", launched)
	}
	waitFor(t, "recovery win", func() bool { return eng.RefreshWins() >= 1 })
	waitFor(t, "entry refreshed", func() bool {
		pools := eng.CachedPools()
		return len(pools) == 1 && pools[0].LastRefresh == dnscache.RefreshOK
	})
}

// TestRefresherEntryEvictedMidRefresh: an entry pushed out of a full
// cache while its background refresh is in flight must not wedge or
// corrupt anything — the refresh completes and re-installs a fresh pool.
func TestRefresherEntryEvictedMidRefresh(t *testing.T) {
	clk := newTestClock()
	counting := newCountingQuerier(30, threeResolverLists())
	q := &hookQuerier{inner: counting}
	eng := refreshEngine(t, q, clk, EngineConfig{
		CacheSize:   1,
		CacheShards: 1,
	})
	ctx := context.Background()

	if _, err := eng.Lookup(ctx, "a.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}

	// Block a.test.'s refresh mid-flight.
	gate := make(chan struct{})
	q.setHook(func(ctx context.Context, name string) error {
		if name != "a.test." {
			return nil
		}
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	clk.advance(25 * time.Second)
	if launched := eng.refresher.scan(); launched != 1 {
		t.Fatalf("scan launched %d, want 1", launched)
	}

	// Evict a.test. from the 1-entry cache while its refresh hangs.
	if _, err := eng.Lookup(ctx, "b.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Evictions == 0 {
		t.Fatal("b.test. did not evict a.test. — test premise broken")
	}

	close(gate)
	waitFor(t, "refresh completion", func() bool { return eng.RefreshWins() == 1 })
	// The refresh re-installed a.test. (fresh consensus is fresh
	// consensus, eviction notwithstanding); nothing deadlocked and the
	// cache stayed within capacity.
	waitFor(t, "a.test. back in cache", func() bool {
		pools := eng.CachedPools()
		return len(pools) == 1 && pools[0].Key == "a.test.|1"
	})
}

// TestRefresherShutdownDrains: Close must stop the scan loop, wait for
// in-flight refreshes, and make later scans no-ops — with -race proving
// nothing touches freed state.
func TestRefresherShutdownDrains(t *testing.T) {
	clk := newTestClock()
	counting := newCountingQuerier(30, threeResolverLists())
	q := &hookQuerier{inner: counting}
	var inflight atomic.Int64
	q.setHook(func(ctx context.Context, name string) error {
		inflight.Add(1)
		defer inflight.Add(-1)
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	// Real interval small enough that the ticker loop itself is
	// exercised alongside the manual scans.
	eng := refreshEngine(t, q, clk, EngineConfig{RefreshInterval: 5 * time.Millisecond})
	ctx := context.Background()

	for _, name := range []string{"a.test.", "b.test.", "c.test."} {
		if _, err := eng.Lookup(ctx, name, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(25 * time.Second)
	eng.refresher.scan()

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if n := inflight.Load(); n != 0 {
		t.Fatalf("%d exchanges still in flight after Close", n)
	}
	// A scan after Close must not launch anything.
	if launched := eng.refresher.scan(); launched != 0 {
		t.Fatalf("post-Close scan launched %d refreshes", launched)
	}
	// Close is idempotent.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}
