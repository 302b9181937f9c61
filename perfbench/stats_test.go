package main

import (
	"math"
	"testing"
)

func TestReportablePercentile(t *testing.T) {
	for _, tc := range []struct {
		n         int
		want, got float64
	}{
		{3000, 99, 99},
		{1000, 99, 99}, // exactly 10 samples beyond p99
		{999, 99, 100 * 989.0 / 999},
		{25, 99, 60},
		{25, 50, 50},
		{15, 50, 100 * 5.0 / 15},
		{10, 50, 0},
		{0, 99, 0},
	} {
		if got := reportablePercentile(tc.n, tc.want); math.Abs(got-tc.got) > 1e-9 {
			t.Errorf("n=%d want p%v: got p%v, expected p%v", tc.n, tc.want, got, tc.got)
		}
	}
}

// TestPercentileRuleTail checks the rule's defining property: the reported
// percentile leaves at least minTail samples beyond it, and no higher
// percentile up to the one asked for does.
func TestPercentileRuleTail(t *testing.T) {
	for n := minTail + 1; n <= 3000; n++ {
		for _, want := range []float64{50, 90, 99} {
			p := reportablePercentile(n, want)
			beyond := func(p float64) int { return n - rank(p, n) }
			if beyond(p) < minTail {
				t.Fatalf("n=%d p%v: only %d samples beyond", n, p, beyond(p))
			}
			if p < want && beyond(p+0.01) >= minTail {
				t.Fatalf("n=%d: p%v is not the highest percentile with %d beyond", n, p, minTail)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 25)
	for i := range xs {
		xs[i] = float64(25 - i) // 25..1, unsorted
	}
	got := tailPercentile(xs, 99)
	if got.P != 60 || got.Value != 15 || got.N != 25 {
		t.Fatalf("got %+v, want p60 = 15 over 25 samples", got)
	}
	if xs[0] != 25 {
		t.Fatal("tailPercentile reordered its input")
	}
}

func TestMidMean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{9, 1, 2, 3, 100, 4, 5, 6}, 4.5}, // drops 1, 2 and 9, 100
		{[]float64{1, 2, 4}, 7.0 / 3},              // too few to trim
		{[]float64{3, 3, 4, 4, 4, 3, 4, 3}, 3.5},   // two modes: no flip
	} {
		if got := midMean(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("midMean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(midMean(nil)) {
		t.Error("midMean(nil) is not NaN")
	}
}

func TestMaxRateOK(t *testing.T) {
	good := func(rate float64) ratePhase {
		return ratePhase{Rate: rate, P99Ms: 1, Attempted: 1000, LateP99Ms: 0.05}
	}
	slow, failing, behind, late := good(8000), good(4000), good(4000), good(4000)
	slow.P99Ms = 2.5
	failing.Failed = 1
	behind.Backlog = true
	late.LateP99Ms = maxGenLateMs
	for _, tc := range []struct {
		name   string
		ladder []ratePhase
		want   float64
	}{
		{"all pass", []ratePhase{good(1000), good(2000), good(4000), good(8000)}, 8000},
		{"p99 over the limit", []ratePhase{good(1000), good(4000), slow}, 4000},
		{"one failure", []ratePhase{good(2000), failing}, 2000},
		{"growing backlog", []ratePhase{good(2000), behind}, 2000},
		{"generator too late", []ratePhase{good(2000), late}, 2000},
		{"failing low rate does not cap a passing high one", []ratePhase{failing, good(8000)}, 8000},
		{"none pass", []ratePhase{slow, failing}, 0},
		{"nothing attempted", []ratePhase{{Rate: 1000}}, 0},
		{"p99 exactly at the limit", []ratePhase{{Rate: 1000, P99Ms: sloP99Ms, Attempted: 1}}, 1000},
	} {
		if got := maxRateOK(tc.ladder); got != tc.want {
			t.Errorf("%s: max_rate_ok %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFailedFrac(t *testing.T) {
	for _, tc := range []struct {
		failed, attempted int64
		want              float64
	}{{0, 100, 0}, {1, 4, 0.25}, {3, 3, 1}, {0, 0, 0}} {
		if got := failedFrac(tc.failed, tc.attempted); got != tc.want {
			t.Errorf("failedFrac(%d, %d) = %v, want %v", tc.failed, tc.attempted, got, tc.want)
		}
	}
}

func TestGrowingBacklog(t *testing.T) {
	steady := make([]float64, 100)
	growing := make([]float64, 100)
	for i := range steady {
		steady[i] = 0.05
		growing[i] = float64(i) * 0.1 // falls 0.1 ms further behind per request
	}
	if growingBacklog(steady) {
		t.Error("steady lag read as a backlog")
	}
	if !growingBacklog(growing) {
		t.Error("growing lag not read as a backlog")
	}
	if growingBacklog(nil) {
		t.Error("empty phase read as a backlog")
	}
}
