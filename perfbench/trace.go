package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Spans are recorded only at the benchmark's own
// boundaries: around each client query, and around each DoH exchange
// the engine sends through the injected HTTP client.
const (
	spanQuery    = "query"
	spanExchange = "doh.exchange"
	// causeRefresh marks an exchange that no live query was waiting on:
	// the refresh-ahead pipeline sent it.
	causeRefresh = -1
)

type span struct {
	Name  string `json:"name"`
	QName string `json:"qname"`
	Phase string `json:"phase"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Cause is the index of the span that caused this one: causeClient
	// for a query span; the query span, or causeRefresh, for an
	// exchange.
	Cause int `json:"cause"`
}

const causeClient = -2

// tracer records spans in memory while on. It is the runPhase hook for
// query spans and the http.RoundTripper the engine's DoH client uses.
type tracer struct {
	epoch time.Time
	base  *http.Transport
	on    atomic.Bool

	mu       sync.Mutex
	phase    string
	spans    []span
	live     map[string]int // queried name → its open query span
	newConns map[string]int // dialled connections per phase
}

func newTracer(base *http.Transport) *tracer {
	return &tracer{epoch: time.Now(), base: base, live: map[string]int{}, newConns: map[string]int{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// enable turns recording on under a phase label; disable turns it off.
func (t *tracer) enable(phase string) {
	t.mu.Lock()
	t.phase = phase
	t.mu.Unlock()
	t.on.Store(true)
}

func (t *tracer) disable() { t.on.Store(false) }

func (t *tracer) start(name string) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: spanQuery, QName: name, Phase: t.phase, Start: t.now(), Cause: causeClient})
	t.live[name] = len(t.spans) - 1
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.now()
	if t.live[t.spans[i].QName] == i {
		delete(t.live, t.spans[i].QName)
	}
}

// RoundTrip times one DoH exchange from request to body close, joins it
// to the live query span for the same name, and counts the connections
// it dials.
func (t *tracer) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() || req.GetBody == nil {
		return t.base.RoundTrip(req)
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	wire, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	name := qnameOf(wire)
	t.mu.Lock()
	cause, ok := t.live[name]
	if !ok {
		cause = causeRefresh
	}
	phase := t.phase
	t.spans = append(t.spans, span{Name: spanExchange, QName: name, Phase: phase, Start: t.now(), Cause: cause})
	i := len(t.spans) - 1
	t.mu.Unlock()

	ct := &httptrace.ClientTrace{ConnectDone: func(_, _ string, err error) {
		if err == nil {
			t.mu.Lock()
			t.newConns[phase]++
			t.mu.Unlock()
		}
	}}
	resp, err := t.base.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), ct)))
	if err != nil {
		t.finish(i)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.finish(i) }}
	return resp, nil
}

func (t *tracer) finish(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[i].End == 0 {
		t.spans[i].End = t.now()
	}
}

// timedBody ends the exchange span when the DoH client closes the body.
type timedBody struct {
	io.ReadCloser
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.done()
	return err
}

// traceStats are the per-layer figures derived from the spans of one
// phase.
type traceStats struct {
	exchanges     int
	exchangeP50US float64
	selfP50US     float64
	quorumWaitP50 float64
	joinedQueries int
	refreshCaused int
	newConns      int
	phaseUsed     string
}

// derive computes the span-derived figures from the phase's spans.
func (t *tracer) derive(phase string) traceStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := traceStats{phaseUsed: phase, newConns: t.newConns[phase]}
	byQuery := map[int][]span{}
	var exDur []float64
	for _, s := range t.spans {
		if s.Phase != phase || s.Name != spanExchange || s.End == 0 {
			continue
		}
		st.exchanges++
		exDur = append(exDur, float64(s.End-s.Start)/1e3)
		if s.Cause == causeRefresh {
			st.refreshCaused++
			continue
		}
		byQuery[s.Cause] = append(byQuery[s.Cause], s)
	}
	var self, wait []float64
	for qi, exs := range byQuery {
		q := t.spans[qi]
		if q.End == 0 {
			continue
		}
		self = append(self, float64(q.End-q.Start-covered(q, exs))/1e3)
		first, last := exs[0].End, exs[0].End
		for _, e := range exs {
			first, last = min(first, e.End), max(last, e.End)
		}
		wait = append(wait, float64(last-first)/1e3)
	}
	st.joinedQueries = len(self)
	st.exchangeP50US = median(exDur)
	st.selfP50US = median(self)
	st.quorumWaitP50 = median(wait)
	return st
}

// covered is the length of the union of the exchange intervals, clipped
// to the query span.
func covered(q span, exs []span) int64 {
	sort.Slice(exs, func(i, j int) bool { return exs[i].Start < exs[j].Start })
	var total, curS, curE int64
	open := false
	for _, e := range exs {
		s, en := max(e.Start, q.Start), min(e.End, q.End)
		if en <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, en, true
		case s <= curE:
			curE = max(curE, en)
		default:
			total += curE - curS
			curS, curE = s, en
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
