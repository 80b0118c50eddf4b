package dohpool

import "time"

// This file holds Config's engine and serving knobs, one sub-struct per
// layer: CacheConfig, RefreshConfig, HealthConfig, TrustConfig,
// ChaosConfig and ServeConfig. Zero values select the defaults; where a
// negative value means "disable" (CacheConfig.Size,
// HealthConfig.BreakerThreshold, TrustConfig.Window) the field says so.

// CacheConfig groups the consensus-cache knobs.
type CacheConfig struct {
	// Size bounds the TTL-aware consensus cache (entries). 0 uses the
	// default capacity; negative disables caching, so every lookup runs
	// a fresh Algorithm 1 fan-out.
	Size int
	// Shards splits the cache into this many lock domains (rounded up
	// to a power of two). 0 sizes automatically from GOMAXPROCS.
	Shards int
	// StaleWhileRevalidate serves an expired pool for up to this long
	// past its TTL while a background refresh runs (0 disables stale
	// serving).
	StaleWhileRevalidate time.Duration
}

// RefreshConfig groups the always-warm refresh-ahead pipeline knobs.
type RefreshConfig struct {
	// Ahead, when in (0, 1], regenerates cached pools in the background
	// once they have lived this fraction of their TTL.
	Ahead float64
	// MinHits is the popularity threshold for staying on the pipeline:
	// only pools read at least this often since their last refresh are
	// regenerated. 0 uses the default of 1, so unread pools expire
	// instead of loading the resolvers forever.
	MinHits uint64
}

// HealthConfig groups resolver-health knobs: straggler hedging and the
// per-resolver circuit breaker.
type HealthConfig struct {
	// HedgeDelay is the straggler-hedge trigger. Positive = fixed;
	// 0 = adaptive (2× EWMA RTT, clamped).
	HedgeDelay time.Duration
	// DisableHedging turns straggler hedging off entirely.
	DisableHedging bool
	// BreakerThreshold is the consecutive-failure count that opens a
	// resolver's breaker (0 = default of 3; negative disables).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects attempts
	// before admitting a probe (default 10s).
	BreakerCooldown time.Duration
}

// TrustConfig groups resolver trust-scoring knobs. Scoring runs only
// when a pool is generated; cached lookups never pay for it.
type TrustConfig struct {
	// Window is how many recent generations feed each resolver's trust
	// score (0 = default of 16; negative disables tracking).
	Window int
	// MinScore, when in (0, 1], enforces trust by quarantining
	// resolvers scoring below it, for as long as the trusted rest keep a
	// strict majority (0 keeps scoring observational; 0.5 is the
	// recommended enforcing value).
	MinScore float64
}

// NetChaosConfig configures network-level fault injection on the
// engine's resolver exchanges: packet loss, added delay, partition
// windows and resolver churn. The zero value injects nothing. Like
// payload chaos, it is a resilience-testing tool, never a production
// setting.
type NetChaosConfig struct {
	// DropProb is the probability in [0, 1] that an exchange is
	// dropped (blocks until the exchange's context expires, like a
	// lost datagram).
	DropProb float64
	// Delay is added to every non-dropped exchange; Jitter adds a
	// uniform random extra in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
	// PartitionEvery/PartitionFor cycle a hard partition: for the
	// first PartitionFor of every PartitionEvery window every targeted
	// exchange is dropped. Both must be set to engage.
	PartitionEvery time.Duration
	PartitionFor   time.Duration
	// ChurnEvery/ChurnDowntime cycle resolver restarts: each
	// ChurnEvery window one targeted resolver (rotating) refuses
	// exchanges for the first ChurnDowntime.
	ChurnEvery    time.Duration
	ChurnDowntime time.Duration
	// Resolvers selects which resolvers (indices into
	// Config.Resolvers) the network faults hit. Empty means all of
	// them — network weather, unlike the payload adversary, is not a
	// per-resolver compromise.
	Resolvers []int
}

// Active reports whether the config injects any network fault.
func (n NetChaosConfig) Active() bool {
	return n.DropProb > 0 ||
		n.Delay > 0 || n.Jitter > 0 ||
		(n.PartitionEvery > 0 && n.PartitionFor > 0) ||
		(n.ChurnEvery > 0 && n.ChurnDowntime > 0)
}

// ChaosConfig groups attack-injection knobs: the payload adversary,
// interposed at the engine's transport seam so the whole stack runs
// attacked, plus the network-fault layer under Net. Never enable it on a
// production resolver path.
type ChaosConfig struct {
	// Payload, when non-empty, interposes the payload adversary:
	// "replace", "inflate" or "empty".
	Payload string
	// Resolvers selects the compromised resolver indices (empty =
	// resolver 0 only).
	Resolvers []int
	// Prob is the per-exchange forge probability (outside (0, 1] =
	// always).
	Prob float64
	// Seed drives chaos randomness (0 uses seed 1). Shared by the
	// payload and network layers.
	Seed int64
	// Net injects network-level faults (loss, delay, partition,
	// churn) on resolver exchanges — independently of Payload, so a
	// run can have bad weather, bad answers, or both.
	Net NetChaosConfig
}

// ServeConfig groups the serving-plane knobs: frontend sizing,
// encrypted listeners, their TLS identity and the admin server.
type ServeConfig struct {
	// UDPWorkers bounds the frontend's UDP worker pool (0 sizes from
	// GOMAXPROCS).
	UDPWorkers int
	// UDPBatch is how many UDP datagrams move per syscall (0 = default
	// of 16).
	UDPBatch int
	// UDPSockets is how many SO_REUSEPORT UDP sockets share the serving
	// port, each with its own reader loop and batch state (0 sizes from
	// NumCPU, 1 = classic single-socket serving; clamped to 1 on
	// platforms without SO_REUSEPORT).
	UDPSockets int
	// MaxTCPConns bounds concurrently served TCP connections (0 =
	// default of 256; DoT shares the bound).
	MaxTCPConns int
	// DoHAddr serves RFC 8484 DNS-over-HTTPS on this address.
	DoHAddr string
	// DoTAddr serves RFC 7858 DNS-over-TLS on this address.
	DoTAddr string
	// TLSCert/TLSKey are PEM paths for the encrypted listeners'
	// identity.
	TLSCert string
	TLSKey  string
	// TLSSelfSigned generates an ephemeral dev identity instead.
	TLSSelfSigned bool
	// AdminAddr starts the observability HTTP server (/metrics, /trustz,
	// /healthz, /poolz) on this address. Bind it to loopback or a
	// management network.
	AdminAddr string
}
