// Command perfbench is dohpool's benchmark. In one process it boots the
// loopback Figure 1 testbed (authoritative servers and DoH resolvers,
// internal/testbed) and the serving path dohpoold runs (dohpool.New,
// then Client.Serve), drives that path closed loop from two client
// connections over UDP, TCP, DoT and DoH in turn, checks every answer,
// and prints its metrics. The last line of standard output is one JSON
// object: end-to-end metrics with -trace 0, per-layer metrics with
// -trace 1. See README.md.
package main

import (
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dohpool"
	"dohpool/internal/testbed"
)

// workload is one traffic mix. Every workload is closed loop, from
// `clients` connections, over loopback with no WAN delay injected.
type workload struct {
	why string
	// ttl is the zone TTL of every pool name.
	ttl uint32
	// names is how many pool names the zone holds, given the run length.
	names func(seconds int) int
	// refreshAhead is Config.Refresh.Ahead (0 leaves the default).
	refreshAhead float64
	// warmup runs this long under load before timing starts, picking
	// with warmPicks.
	warmup    time.Duration
	warmPicks func(names []string, ramp time.Duration) pickerFor
	// picks returns one client's name picker.
	picks func(names []string, seed int64) pickerFor
}

// hitNames is the hit working set: the primary pool name plus 16
// extras. Every workload's setup prewarms these names, so setup_s does
// the same work everywhere and sums enough generations to be steady.
const hitNames = 17

var workloads = map[string]workload{
	"hit": {
		why:   "17 prewarmed names picked zipf 1.1 with a 150 s TTL: every answer is a wire-cache hit, so only the frontend fast paths and the WireCache work",
		ttl:   150,
		names: func(int) int { return hitNames },
		picks: zipfPicks,
	},
	"miss": {
		why: "every query names a pool name never asked before: each answer runs the whole cold path (slow path, singleflight, 3-resolver DoH fan-out, combine, trust, encode, publish with eviction)",
		ttl: 150,
		// The cold path answers ~1–1.5k names/s on the reference host;
		// the supply leaves room for a faster one. The zone's size is
		// what bounds it: each name costs the three authoritative
		// servers ~2 KB.
		names: func(seconds int) int { return hitNames + 2000*seconds },
		picks: freshPicks,
	},
	"churn": {
		why:          "512 names picked uniformly with a 10 s TTL and refresh-ahead 0.5, timed after one TTL of warm-up: wire hits run beside regenerations that republish entries",
		ttl:          10,
		names:        func(int) int { return 512 },
		refreshAhead: 0.5,
		// The warm-up brings the names in at an even pace over one TTL,
		// so their expiries spread evenly as in a daemon whose names
		// arrived over time; prewarming all of them at once would make
		// every entry expire in the same instant, once a TTL.
		warmup:    10 * time.Second,
		warmPicks: rampPicks,
		picks:     uniformPicks,
	},
}

// zipfPicks picks among the first hitNames names, zipf s=1.1.
func zipfPicks(names []string, _ int64) pickerFor {
	n := min(len(names), hitNames)
	return func(rng *rand.Rand) picker {
		z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
		return func() (string, bool) { return names[z.Uint64()], true }
	}
}

func uniformPicks(names []string, _ int64) pickerFor {
	return func(rng *rand.Rand) picker {
		return func() (string, bool) { return names[rng.Intn(len(names))], true }
	}
}

// rampPicks picks uniformly among the names brought in so far, one more
// every ramp/len(names), starting from the first call.
func rampPicks(names []string, ramp time.Duration) pickerFor {
	var once sync.Once
	var start time.Time
	return func(rng *rand.Rand) picker {
		once.Do(func() { start = time.Now() })
		return func() (string, bool) {
			k := 1 + int(float64(len(names)-1)*min(1, float64(time.Since(start))/float64(ramp)))
			return names[rng.Intn(k)], true
		}
	}
}

// freshPicks hands out every name but the prewarmed ones exactly once,
// in a seeded order shared by all clients and phases.
func freshPicks(names []string, seed int64) pickerFor {
	order := rand.New(rand.NewSource(seed)).Perm(len(names) - hitNames)
	var next atomic.Int64
	return func(*rand.Rand) picker {
		return func() (string, bool) {
			i := next.Add(1) - 1
			if i >= int64(len(order)) {
				return "", false
			}
			return names[1+order[i]], true
		}
	}
}

// turn is how long one round drives one transport: a run of S timed
// seconds is 2.5·S rounds over the four transports.
const turn = 100 * time.Millisecond

// setupReps is how many times a run sets the serving path up; setup_s
// is the median.
const setupReps = 31

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: hit, miss or churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every pick and query ID")
	flag.IntVar(&o.seconds, "seconds", 30, "timed seconds, split evenly over udp, tcp, dot and doh")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to, one JSON object a line")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload hit|miss|churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts every checked answer of a run.
type tally struct {
	attempted, failed int
}

func (t *tally) add(st *phaseStats) {
	t.attempted += st.attempted
	t.failed += st.failed
}

func run(o options) (*result, error) {
	w := workloads[o.workload]
	nNames := w.names(o.seconds)
	tb, err := testbed.Start(testbed.Config{TTL: w.ttl, ExtraPoolDomains: nNames - 1})
	if err != nil {
		return nil, fmt.Errorf("start testbed: %w", err)
	}
	defer tb.Close()
	names := tb.PoolDomains()
	orc := newOracle(tb.BenignAddrs, w.ttl)
	fails := &failures{}
	var tot tally

	cfg := dohpool.Config{
		TLSConfig: tb.CA.ClientTLS(),
		Refresh:   dohpool.RefreshConfig{Ahead: w.refreshAhead},
		Serve: dohpool.ServeConfig{
			DoHAddr:       "127.0.0.1:0",
			DoTAddr:       "127.0.0.1:0",
			TLSSelfSigned: true,
		},
	}
	for _, ep := range tb.Endpoints {
		cfg.Resolvers = append(cfg.Resolvers, dohpool.Resolver{Name: ep.Name, URL: ep.URL})
	}
	// Setup: dohpool.New, Client.Serve and the prewarm, setupReps times
	// from cold resolver caches; the last one serves the run.
	var setups []float64
	var client *dohpool.Client
	var fe *dohpool.Frontend
	var tr *tracer
	var h hook
	closeServing := func() {
		if fe != nil {
			_ = fe.Close()
		}
		if client != nil {
			_ = client.Close()
		}
		if tr != nil {
			tr.base.CloseIdleConnections()
		}
		fe, client = nil, nil
	}
	defer closeServing()
	for r := 0; r < setupReps; r++ {
		closeServing()
		tb.FlushResolverCaches()
		// Collect the testbed's and the last setup's garbage first, so no
		// setup pays for a collection it did not cause.
		runtime.GC()
		if o.trace {
			// A fresh transport per setup, with the settings
			// doh.NewClient gives its own, so every setup dials its
			// resolver connections as an untraced one does.
			tr = newTracer(&http.Transport{
				TLSClientConfig:     tb.CA.ClientTLS(),
				ForceAttemptHTTP2:   true,
				MaxIdleConnsPerHost: 4,
				IdleConnTimeout:     30 * time.Second,
			})
			h = tr
			cfg.HTTPClient = &http.Client{Transport: tr}
			tr.enable("prewarm")
		}
		t0 := time.Now()
		if client, err = dohpool.New(cfg); err != nil {
			return nil, fmt.Errorf("dohpool.New: %w", err)
		}
		if fe, err = client.Serve("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if err := prewarm(fe.Addr(), names[:hitNames], orc, h, &tot); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if tr != nil {
			tr.disable()
		}
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(client.ServingCAPEM()) {
		return nil, errors.New("serving CA: no certificate")
	}
	ep := endpoints{udp: fe.Addr(), tcp: fe.Addr(), dot: fe.DoTAddr(), doh: fe.DoHAddr(),
		tls: &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12}}

	// Phase seeds differ per phase so no two phases repeat one pick
	// sequence; the miss supply is shared by every phase.
	phaseSeed := func(i int) int64 { return o.seed*7919 + int64(i) }
	picks := w.picks(names, o.seed)

	var nullEP endpoints
	if o.trace {
		serverTLS, err := tb.CA.ServerTLS("127.0.0.1")
		if err != nil {
			return nil, err
		}
		null, err := startNull(cannedAnswer(tb.BenignAddrs, w.ttl), serverTLS)
		if err != nil {
			return nil, fmt.Errorf("null responder: %w", err)
		}
		defer null.close()
		nullEP = null.endpoints(tb.CA.ClientTLS())
	}

	drive := func(ph phase) (*phaseStats, error) {
		ph.warmName = names[0]
		st, err := runPhase(ph, orc, fails)
		if err != nil {
			return nil, err
		}
		tot.add(st)
		return st, nil
	}

	if w.warmup > 0 {
		if _, err := drive(phase{proto: "udp", ep: ep, dur: w.warmup, seed: phaseSeed(-1), picks: w.warmPicks(names, w.warmup)}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	// The timed part runs in rounds, each driving every transport in turn
	// over fresh connections. Latency depends on where the scheduler and
	// the kernel's flow steering place each connection, a draw that holds
	// for the connection's life; many short rounds, pooled, average over
	// that draw instead of reporting one of its outcomes. The traced run
	// splits each transport's turn in three: the null responder (the
	// floor), the untraced program (counters and runtime figures) and the
	// traced program (spans).
	floor, untraced, traced := map[string]*phaseStats{}, map[string]*phaseStats{}, map[string]*phaseStats{}
	for _, p := range protos {
		floor[p], untraced[p], traced[p] = &phaseStats{}, &phaseStats{}, &phaseStats{}
	}
	counters := promSnapshot{}
	var proc procSample
	var scrapeErr error
	var before promSnapshot
	var p0 procSample
	// countersClock brackets an untraced turn with counter and runtime
	// readings.
	countersClock := func(start bool) {
		snap, err := scrape(client)
		if err != nil {
			scrapeErr = err
			return
		}
		if start {
			before, p0 = snap, readProc()
			return
		}
		proc.add(readProc().sub(p0))
		counters.add(snap.sub(before))
	}
	traceClock := func(start bool) {
		if start {
			tr.enable("timed")
		} else {
			tr.disable()
		}
	}
	rounds := o.seconds * int(time.Second/turn) / len(protos)
	for r := 0; r < rounds; r++ {
		for i, p := range protos {
			seed := phaseSeed(3 * (r*len(protos) + i))
			if !o.trace {
				st, err := drive(phase{proto: p, ep: ep, dur: turn, seed: seed, picks: picks})
				if err != nil {
					return nil, err
				}
				untraced[p].merge(st)
				continue
			}
			st, err := drive(phase{proto: p, ep: nullEP, dur: turn / 3, seed: seed + 1, picks: zipfPicks(names, o.seed)})
			if err != nil {
				return nil, fmt.Errorf("floor: %w", err)
			}
			floor[p].merge(st)
			if st, err = drive(phase{proto: p, ep: ep, dur: turn / 3, seed: seed, picks: picks, clock: countersClock}); err != nil {
				return nil, err
			}
			if scrapeErr != nil {
				return nil, fmt.Errorf("read counters: %w", scrapeErr)
			}
			untraced[p].merge(st)
			if st, err = drive(phase{proto: p, ep: ep, dur: turn / 3, seed: seed + 2, picks: picks, hook: tr, clock: traceClock}); err != nil {
				return nil, err
			}
			traced[p].merge(st)
		}
	}

	res := &result{Correct: tot.failed == 0, Attempted: tot.attempted, Failed: tot.failed, Metrics: map[string]metric{}}
	report(os.Stdout, o, w, setups, untraced, tot, fails)
	if !o.trace {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		for _, p := range protos {
			st := untraced[p]
			res.Metrics[p+"_qps"] = metric{st.qps(), "1/s"}
			res.Metrics[p+"_p50_us"] = metric{st.quantileUS(0.5), "us"}
		}
		res.Metrics["udp_p95_us"] = metric{untraced["udp"].quantileUS(0.95), "us"}
		return res, nil
	}

	lifetime, err := scrape(client)
	if err != nil {
		return nil, err
	}
	layers := perLayer(counters, lifetime, proc, untraced, traced, floor, tr)
	reportLayers(os.Stdout, layers)
	for _, l := range layers {
		res.Metrics[l.name] = metric{l.value, l.unit}
	}
	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", o.spans)
	}
	return res, nil
}

// prewarm asks every name once over UDP, split across the clients, and
// checks each answer.
func prewarm(addr string, names []string, orc *oracle, h hook, tot *tally) error {
	errs := make([]error, clients)
	counts := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := dial("udp", endpoints{udp: addr})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.close()
			for j := i; j < len(names); j += clients {
				q := question(names[j])
				id := uint16(j)
				span := -1
				if h != nil {
					span = h.start(names[j])
				}
				resp, err := c.exchange(appendQuery(nil, id, q))
				if err == nil {
					err = orc.check(resp, id, q)
				}
				if h != nil {
					h.end(span)
				}
				counts[i]++
				if err != nil {
					errs[i] = fmt.Errorf("prewarm %s: %w", names[j], err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, n := range counts {
		tot.attempted += n
	}
	return errors.Join(errs...)
}

// report prints the end-to-end figures, each with its sample count.
func report(f *os.File, o options, w workload, setups []float64, st map[string]*phaseStats, tot tally, fails *failures) {
	fmt.Fprintf(f, "workload %s (seed %d, %d s timed, trace %v): %s\n", o.workload, o.seed, o.seconds, o.trace, w.why)
	fmt.Fprintf(f, "  %-12s %12.4f s    (median of %d setups)\n", "setup_s", median(setups), len(setups))
	ratio := 0.0
	if tot.attempted > 0 {
		ratio = float64(tot.failed) / float64(tot.attempted)
	}
	fmt.Fprintf(f, "  %-12s %12.6f ratio (%d of %d answers failed)\n", "fail_ratio", ratio, tot.failed, tot.attempted)
	for _, p := range protos {
		s := st[p]
		fmt.Fprintf(f, "  %-12s %12.1f 1/s  (median of %d turns; %d answers in %.2f s)\n", p+"_qps", s.qps(), len(s.rates), s.samples(), s.elapsed.Seconds())
		fmt.Fprintf(f, "  %-12s %12.1f us   (n=%d)\n", p+"_p50_us", s.quantileUS(0.5), s.samples())
		if p == "udp" {
			fmt.Fprintf(f, "  %-12s %12.1f us   (n=%d)\n", p+"_p95_us", s.quantileUS(0.95), s.samples())
			fmt.Fprintf(f, "  %-12s %12.1f us   (n=%d; printed only, see README)\n", p+"_p99_us", s.quantileUS(0.99), s.samples())
		}
	}
	reasons := make([]string, 0, len(fails.reasons))
	for r := range fails.reasons {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(f, "  failure x%d: %s\n", fails.reasons[r], r)
	}
}
