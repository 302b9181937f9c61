package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the percentile rule's tail size: a percentile is reported only
// when at least this many samples lie beyond it.
const minTail = 10

// pctl is one reported percentile: the value, the percentile actually used
// (lower than the one asked for when the sample is too small) and the
// sample count.
type pctl struct {
	Value float64 `json:"value"`
	P     float64 `json:"p"`
	N     int     `json:"n"`
}

// reportablePercentile applies the percentile rule: the highest percentile
// at or below want that leaves at least minTail of n samples beyond it
// (nearest rank: the p-th percentile is the ceil(p·n/100)-th smallest, so
// n−ceil(p·n/100) samples lie beyond it). With n ≤ minTail no percentile
// qualifies and 0 (the minimum) is returned.
func reportablePercentile(n int, want float64) float64 {
	if n <= minTail {
		return 0
	}
	return math.Min(want, 100*float64(n-minTail)/float64(n))
}

// rank is the 1-based nearest rank of the p-th percentile among n samples,
// ceil(p·n/100) clamped to [1, n]; the tolerance keeps p = 100·k/n from
// rounding up to rank k+1.
func rank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(k, 1), n)
}

// percentile returns the nearest-rank p-th percentile of an ascending
// slice (p = 0 is the minimum).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile reports the percentile rule's value for want.
func tailPercentile(xs []float64, want float64) pctl {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := reportablePercentile(len(s), want)
	return pctl{Value: percentile(s, p), P: p, N: len(s)}
}

// median returns the median of xs (mean of the middle two for even
// counts) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// midMean is the interquartile mean of xs: the mean of what remains after
// the lowest and the highest quarter are dropped (for fewer than four
// values, the mean of all). Round-level figures on a shared host are often
// bimodal; a median then flips between the modes from run to run, while
// the middle half's mean moves smoothly with the modes' mix and still
// ignores stalled rounds.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q := len(s) / 4; q > 0 {
		s = s[q : len(s)-q]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// failedFrac is the share of attempts that failed (0 when nothing was
// attempted, so an empty phase never reads as a failure).
func failedFrac(failed, attempted int64) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// SLO limits of the open-loop rate ladder.
const (
	sloP99Ms = 2.0
	// maxGenLateMs bounds the generator's own lateness at a counted rate:
	// a latency number is only trusted when the sender was on time to well
	// within the limit it is judged against.
	maxGenLateMs = sloP99Ms / 4
	// backlogMs is how much the send lag (send time minus due time) of the
	// last fifth of a phase may exceed that of the first fifth before the
	// phase counts as falling behind.
	backlogMs = 1.0
)

// ratePhase summarizes one open-loop phase for the max_rate_ok rule.
type ratePhase struct {
	Rate      float64 `json:"rate"`
	P99Ms     float64 `json:"p99_ms"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Backlog   bool    `json:"backlog"`
	LateP99Ms float64 `json:"late_p99_ms"`
}

// ok reports whether the phase meets the serving SLO: p99 within the
// limit, no failures, no growing backlog, and a generator punctual enough
// for the p99 to mean something.
func (p ratePhase) ok() bool {
	return p.Attempted > 0 && p.P99Ms <= sloP99Ms && p.Failed == 0 && !p.Backlog &&
		p.LateP99Ms < maxGenLateMs
}

// maxRateOK is the highest fixed rate whose phase meets the SLO, or 0 when
// none does. Rates are judged independently: a failing lower rate does not
// disqualify a passing higher one.
func maxRateOK(phases []ratePhase) float64 {
	best := 0.0
	for _, p := range phases {
		if p.ok() && p.Rate > best {
			best = p.Rate
		}
	}
	return best
}

// growingBacklog applies the backlog rule to a phase's per-request send
// lags (milliseconds, in schedule order).
func growingBacklog(lagMs []float64) bool {
	n := len(lagMs) / 5
	if n == 0 {
		return false
	}
	return median(lagMs[len(lagMs)-n:])-median(lagMs[:n]) > backlogMs
}
