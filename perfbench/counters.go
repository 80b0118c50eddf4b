package main

import (
	"bufio"
	"bytes"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dohpool"
)

// promSnapshot is one reading of Client.WritePrometheus: series (name
// with its label set, as printed) to value.
type promSnapshot map[string]float64

func scrape(c *dohpool.Client) (promSnapshot, error) {
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	snap := promSnapshot{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		snap[line[:i]] += v
	}
	return snap, sc.Err()
}

// sub returns the per-series difference s - base.
func (s promSnapshot) sub(base promSnapshot) promSnapshot {
	d := promSnapshot{}
	for k, v := range s {
		d[k] = v - base[k]
	}
	return d
}

// add accumulates another delta into s.
func (s promSnapshot) add(o promSnapshot) {
	for k, v := range o {
		s[k] += v
	}
}

// sum totals every series of metric name whose labels contain all of
// the given `key="value"` pairs.
func (s promSnapshot) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		series, lbl, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// values lists every series of metric name.
func (s promSnapshot) values(name string) []float64 {
	var out []float64
	for k, v := range s {
		if series, _, _ := strings.Cut(k, "{"); series == name {
			out = append(out, v)
		}
	}
	return out
}

// histQuantileUS estimates the q-quantile, in microseconds, of a
// seconds histogram from its cumulative `_bucket` series, interpolating
// linearly inside the winning bucket. It returns 0 for an empty
// histogram.
func (s promSnapshot) histQuantileUS(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range s {
		series, lbl, _ := strings.Cut(k, "{")
		if series != name+"_bucket" {
			continue
		}
		_, le, _ := strings.Cut(lbl, `le="`)
		le, _, _ = strings.Cut(le, `"`)
		bound := math.Inf(1)
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{bound, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].cum
	lo, loCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target && b.cum > loCum {
			if math.IsInf(b.le, 1) {
				return lo * 1e6
			}
			return (lo + (b.le-lo)*(target-loCum)/(b.cum-loCum)) * 1e6
		}
		lo, loCum = b.le, b.cum
	}
	return lo * 1e6
}

// procSample is the process-wide runtime and CPU state at one instant.
type procSample struct {
	allocBytes float64
	gcCycles   float64
	cpu        time.Duration
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readProc() procSample {
	s := make([]metrics.Sample, len(procMetrics))
	copy(s, procMetrics)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

func (p procSample) sub(base procSample) procSample {
	return procSample{p.allocBytes - base.allocBytes, p.gcCycles - base.gcCycles, p.cpu - base.cpu}
}

func (p *procSample) add(o procSample) {
	p.allocBytes += o.allocBytes
	p.gcCycles += o.gcCycles
	p.cpu += o.cpu
}
