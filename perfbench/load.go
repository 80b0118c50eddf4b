package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: one per CPU of the 2-vCPU
// reference host, each a stub that waits for its reply.
const clients = 2

// picker chooses one client's next name. ok is false once the workload
// has no name left to ask (miss exhausts its supply).
type picker func() (name string, ok bool)

// pickerFor builds one client's picker from its seeded generator.
type pickerFor func(rng *rand.Rand) picker

// failures counts what went wrong, by reason, across a run.
type failures struct {
	mu      sync.Mutex
	reasons map[string]int
}

func (f *failures) add(reason string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.reasons == nil {
		f.reasons = map[string]int{}
	}
	f.reasons[reason]++
}

// phaseStats is what the timed phases of one transport measured.
type phaseStats struct {
	attempted int
	failed    int
	elapsed   time.Duration
	// lat holds every validated answer's latency in microseconds.
	lat []float64
	// rates holds each phase's validated answers per second.
	rates []float64
}

func (p *phaseStats) merge(o *phaseStats) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.elapsed += o.elapsed
	p.lat = append(p.lat, o.lat...)
	p.rates = append(p.rates, o.rates...)
}

// qps is the median over phases of each phase's validated answers per
// second, so a stall of the shared host that hits a few phases does not
// move it.
func (p *phaseStats) qps() float64 { return median(p.rates) }

// quantileUS is the q-quantile of every validated answer's latency.
func (p *phaseStats) quantileUS(q float64) float64 { return quantile(p.lat, q) }

func (p *phaseStats) samples() int { return len(p.lat) }

// hook is called around every timed query; tracing uses it.
type hook interface {
	start(name string) int
	end(span int)
}

// phase is one stretch of closed-loop load over one transport.
type phase struct {
	proto string
	ep    endpoints
	dur   time.Duration
	seed  int64
	picks pickerFor
	// warmName is asked once, untimed, on every connection before the
	// clock starts.
	warmName string
	hook     hook
	// clock, when set, is called as the clock starts (true) and once the
	// last answer is in (false).
	clock func(start bool)
}

// runPhase drives ph.ep over ph.proto from `clients` fresh persistent
// connections for ph.dur, or until the picks run dry, and checks every
// answer.
func runPhase(ph phase, orc *oracle, fails *failures) (*phaseStats, error) {
	proto, d, h := ph.proto, ph.dur, ph.hook
	conns := make([]conn, clients)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.close()
			}
		}
	}()
	warmQ := question(ph.warmName)
	for i := range conns {
		c, err := dial(proto, ph.ep)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", proto, err)
		}
		conns[i] = c
		resp, err := c.exchange(appendQuery(nil, 1, warmQ))
		if err != nil {
			return nil, fmt.Errorf("%s warm query: %w", proto, err)
		}
		if err := orc.check(resp, 1, warmQ); err != nil {
			return nil, fmt.Errorf("%s warm answer: %w", proto, err)
		}
	}

	var attempted, failed atomic.Int64
	perClient := make([][]float64, clients)
	if ph.clock != nil {
		ph.clock(true)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c conn) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(ph.seed*1000003 + int64(i)))
			pick := ph.picks(rng)
			questions := map[string][]byte{}
			var buf []byte
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				name, ok := pick()
				if !ok {
					return
				}
				q, seen := questions[name]
				if !seen {
					q = question(name)
					questions[name] = q
				}
				id := uint16(rng.Uint32())
				buf = appendQuery(buf[:0], id, q)
				span := -1
				if h != nil {
					span = h.start(name)
				}
				t0 := time.Now()
				resp, err := c.exchange(buf)
				lat := time.Since(t0)
				if err == nil {
					err = orc.check(resp, id, q)
				}
				if h != nil {
					h.end(span)
				}
				attempted.Add(1)
				if err != nil {
					failed.Add(1)
					fails.add(proto + ": " + err.Error())
					continue
				}
				perClient[i] = append(perClient[i], float64(lat.Nanoseconds())/1e3)
			}
		}(i, c)
	}
	wg.Wait()
	if ph.clock != nil {
		ph.clock(false)
	}
	st := &phaseStats{
		attempted: int(attempted.Load()),
		failed:    int(failed.Load()),
		elapsed:   min(time.Since(start), d),
	}
	for _, pc := range perClient {
		st.lat = append(st.lat, pc...)
	}
	if st.elapsed > 0 {
		st.rates = []float64{float64(len(st.lat)) / st.elapsed.Seconds()}
	}
	return st, nil
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
