package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to mean anything.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// samples. It refuses when fewer than minBeyond samples lie beyond it: a
// p99 over 500 requests is the fifth-worst request, not a tail.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", 100*p, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// quartiles returns the three cut points of values into four groups by the
// "exclusive" method, the default of Python's statistics.quantiles(n=4), so
// the steadiness mode reports the spread the same way it is judged.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median is the middle quartile.
func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// failureUpperBound is the one-sided 95% Wilson upper confidence bound on
// the per-request failure probability after failed of attempted requests.
// failed_share reports it with attempted fixed at failureRef: unlike the
// raw ratio it is never 0, and it rises with every failure.
func failureUpperBound(failed, attempted int64) float64 {
	if attempted <= 0 {
		return 1
	}
	const z = 1.6448536269514722 // one-sided 95%
	n := float64(attempted)
	p := float64(failed) / n
	z2 := z * z
	centre := p + z2/(2*n)
	margin := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	return math.Min(1, (centre+margin)/(1+z2/n))
}

// promSample is one /metrics scrape: series text (name plus label set, as
// rendered) to value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format. Comment lines are
// skipped; every other line must be "<series> <value>".
func parseProm(text string) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family whose label text contains all of the
// given label pairs (each written as `key="value"`).
func (p promSample) sum(family string, labels ...string) float64 {
	total := 0.0
	for series, v := range p {
		name, lbls, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbls, l) {
				ok = false
				break
			}
		}
		if ok && !math.IsNaN(v) {
			total += v
		}
	}
	return total
}

// delta is the growth of a family (filtered as in sum) between two scrapes.
func delta(before, after promSample, family string, labels ...string) float64 {
	return after.sum(family, labels...) - before.sum(family, labels...)
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
