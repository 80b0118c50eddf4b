package dohpool

import (
	"reflect"
	"testing"
	"time"
)

// TestNetChaosConfigActive pins which combinations engage the
// network-fault layer.
func TestNetChaosConfigActive(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  NetChaosConfig
		want bool
	}{
		{"zero", NetChaosConfig{}, false},
		{"drop", NetChaosConfig{DropProb: 0.1}, true},
		{"delay", NetChaosConfig{Delay: time.Millisecond}, true},
		{"jitter only", NetChaosConfig{Jitter: time.Millisecond}, true},
		{"partition needs both", NetChaosConfig{PartitionEvery: time.Second}, false},
		{"partition", NetChaosConfig{PartitionEvery: time.Second, PartitionFor: time.Millisecond}, true},
		{"churn needs both", NetChaosConfig{ChurnDowntime: time.Second}, false},
		{"churn", NetChaosConfig{ChurnEvery: time.Second, ChurnDowntime: time.Millisecond}, true},
	} {
		if got := tc.cfg.Active(); got != tc.want {
			t.Errorf("%s: Active() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// configSurface is the locked exported field surface of Config and its
// sub-structs. Removing or renaming any of these fields is an API
// break; this test turns that into a diff you must consciously edit.
var configSurface = map[string][]string{
	"Config": {
		"Resolvers", "TLSConfig", "UseGET", "UsePadding", "MinResolvers",
		"WithMajority", "Sequential", "DualStack", "QueryTimeout", "HTTPClient",
		"Cache", "Refresh", "Health", "Trust", "Chaos", "Serve",
	},
	"CacheConfig":   {"Size", "Shards", "StaleWhileRevalidate"},
	"RefreshConfig": {"Ahead", "MinHits"},
	"HealthConfig":  {"HedgeDelay", "DisableHedging", "BreakerThreshold", "BreakerCooldown"},
	"TrustConfig":   {"Window", "MinScore"},
	"ChaosConfig":   {"Payload", "Resolvers", "Prob", "Seed", "Net"},
	"NetChaosConfig": {
		"DropProb", "Delay", "Jitter", "PartitionEvery", "PartitionFor",
		"ChurnEvery", "ChurnDowntime", "Resolvers",
	},
	"ServeConfig": {
		"UDPWorkers", "UDPBatch", "UDPSockets", "MaxTCPConns", "DoHAddr", "DoTAddr",
		"TLSCert", "TLSKey", "TLSSelfSigned", "AdminAddr",
	},
}

// TestConfigSurfaceLock compares the reflected field sets of the config
// structs against the locked surface above, in both directions.
func TestConfigSurfaceLock(t *testing.T) {
	types := map[string]reflect.Type{
		"Config":         reflect.TypeOf(Config{}),
		"CacheConfig":    reflect.TypeOf(CacheConfig{}),
		"RefreshConfig":  reflect.TypeOf(RefreshConfig{}),
		"HealthConfig":   reflect.TypeOf(HealthConfig{}),
		"TrustConfig":    reflect.TypeOf(TrustConfig{}),
		"ChaosConfig":    reflect.TypeOf(ChaosConfig{}),
		"NetChaosConfig": reflect.TypeOf(NetChaosConfig{}),
		"ServeConfig":    reflect.TypeOf(ServeConfig{}),
	}
	for name, typ := range types {
		locked := make(map[string]bool, len(configSurface[name]))
		for _, f := range configSurface[name] {
			locked[f] = true
		}
		got := make(map[string]bool, typ.NumField())
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			got[f.Name] = true
			if !locked[f.Name] {
				t.Errorf("%s gained exported field %s — extend the locked surface deliberately", name, f.Name)
			}
		}
		for f := range locked {
			if !got[f] {
				t.Errorf("%s lost exported field %s — an API break", name, f)
			}
		}
	}
}
