// Quickstart: generate a consensus-backed server pool with Algorithm 1,
// running the engine in its always-warm configuration.
//
// The example boots a self-contained Figure 1 testbed on loopback (three
// authoritative pool nameservers, three DoH resolvers) so it runs without
// network access, then uses the public dohpool API exactly as a real
// deployment would use dns.google / cloudflare-dns.com / dns.quad9.net:
// refresh-ahead regenerates popular pools in the background at 80% of
// their TTL, stale-while-revalidate bridges resolver hiccups, and the
// admin server's /poolz endpoint shows each cached pool's refresh state.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"dohpool"
	"dohpool/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Boot a local stand-in for the public DoH resolver ecosystem.
	tb, err := testbed.Start(testbed.Config{})
	if err != nil {
		return fmt.Errorf("start testbed: %w", err)
	}
	defer tb.Close()

	// The public API: three distributed DoH resolvers, strict quorum,
	// and the always-warm engine configuration.
	cfg := dohpool.Config{
		TLSConfig: tb.CA.ClientTLS(),

		// Always-warm knobs: regenerate a cached pool in the background
		// once it has lived 80% of its TTL, but only pools that were
		// actually read since generation (MinHits); keep serving an
		// expired pool for up to 30s while a refresh is in flight.
		Refresh: dohpool.RefreshConfig{Ahead: 0.8, MinHits: 1},
		Cache: dohpool.CacheConfig{
			StaleWhileRevalidate: 30 * time.Second,
			// Sharded pool cache: one lock domain per core (0 = automatic).
			Shards: 0,
		},

		// Observability on an ephemeral loopback port.
		Serve: dohpool.ServeConfig{AdminAddr: "127.0.0.1:0"},
	}
	for _, ep := range tb.Endpoints {
		cfg.Resolvers = append(cfg.Resolvers, dohpool.Resolver{Name: ep.Name, URL: ep.URL})
	}
	client, err := dohpool.New(cfg)
	if err != nil {
		return fmt.Errorf("build client: %w", err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pool, err := client.LookupPool(ctx, tb.Domain())
	if err != nil {
		return fmt.Errorf("lookup pool: %w", err)
	}

	fmt.Printf("queried %d DoH resolvers for %s\n", client.ResolverCount(), tb.Domain())
	for _, pr := range pool.PerResolver {
		fmt.Printf("  %-12s %d answers in %v\n",
			pr.Resolver.Name, len(pr.Addrs), pr.RTT.Round(time.Millisecond))
	}
	fmt.Printf("truncate length K = %d (shortest list)\n", pool.TruncateLength)
	fmt.Printf("combined pool (%d entries, duplicates count individually):\n", len(pool.Addrs))
	for i, addr := range pool.Addrs {
		fmt.Printf("  [resolver %d] %v\n", i/pool.TruncateLength, addr)
	}

	// A few repeat lookups: all served from the sharded cache, and each
	// hit feeds the refresher's popularity signal.
	for i := 0; i < 3; i++ {
		if _, err := client.LookupPool(ctx, tb.Domain()); err != nil {
			return fmt.Errorf("cached lookup: %w", err)
		}
	}

	// Inspect the always-warm state the way an operator would: the
	// admin server's /poolz lists every cached pool with its hit count,
	// background refreshes and the latest refresh outcome.
	resp, err := http.Get("http://" + client.AdminAddr() + "/poolz")
	if err != nil {
		return fmt.Errorf("GET /poolz: %w", err)
	}
	defer resp.Body.Close()
	var pools struct {
		Pools []struct {
			Key         string  `json:"key"`
			TTLSeconds  float64 `json:"ttl_seconds"`
			Hits        uint64  `json:"hits"`
			Refreshes   uint64  `json:"refreshes"`
			LastRefresh string  `json:"last_refresh"`
		} `json:"pools"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pools); err != nil {
		return fmt.Errorf("decode /poolz: %w", err)
	}
	fmt.Println("\ncached pools (admin /poolz):")
	for _, p := range pools.Pools {
		fmt.Printf("  %-24s ttl=%.0fs hits=%d refreshes=%d last_refresh=%s\n",
			p.Key, p.TTLSeconds, p.Hits, p.Refreshes, p.LastRefresh)
	}
	fmt.Println("\nwith Refresh.Ahead set, this pool is regenerated in the")
	fmt.Println("background at 80% of its TTL — a long-running deployment")
	fmt.Println("never pays an inline fan-out for it again.")
	return nil
}
