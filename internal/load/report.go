package load

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Report is the outcome of one load run: counts by outcome class, exact
// client-side latency quantiles per request kind, and the derived SLO
// numbers. Unlike the server's bounded histograms, the client keeps every
// success latency — a load run is finite, so exact quantiles are cheap and
// give the bound the serving histograms are tested against.
type Report struct {
	// Config echoes the run's effective (defaulted) configuration.
	Config Config `json:"config"`
	// Elapsed is the wall time from first arrival scheduled to last
	// response drained.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Sent counts requests actually fired (arrivals minus drops).
	Sent int64 `json:"sent"`
	// Counts maps kind → class → count.
	Counts map[string]map[string]int `json:"counts"`
	// Latency maps kind → summary over successful (ok or partial)
	// responses; the "all" key merges both kinds.
	Latency map[string]LatSummary `json:"latency"`
}

// LatSummary is an exact latency distribution over completed requests.
type LatSummary struct {
	Count int           `json:"count"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
}

func summarize(lats []time.Duration) LatSummary {
	if len(lats) == 0 {
		return LatSummary{}
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, l := range sorted {
		sum += l
	}
	return LatSummary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		Mean:  sum / time.Duration(len(sorted)),
		P50:   quantile(sorted, 0.50),
		P90:   quantile(sorted, 0.90),
		P99:   quantile(sorted, 0.99),
	}
}

// quantile returns the nearest-rank p-quantile of a sorted slice: the
// smallest element such that at least p·n of the samples are <= it, i.e.
// sorted[ceil(p·n)−1]. The obvious index int(p·(n−1)) truncates toward zero
// and systematically understates upper tails — with n=10 it reports the 9th
// sample as p99 when the nearest-rank answer is the 10th (the max), which is
// exactly the sample an SLO check cares about.
func quantile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

func buildReport(cfg Config, elapsed time.Duration, sent int64, rec *recorder) *Report {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	r := &Report{
		Config:  cfg,
		Elapsed: elapsed,
		Sent:    sent,
		Counts:  map[string]map[string]int{},
		Latency: map[string]LatSummary{},
	}
	var all []time.Duration
	for kind, byClass := range rec.counts {
		if len(byClass) == 0 {
			continue
		}
		cp := make(map[string]int, len(byClass))
		for class, n := range byClass {
			cp[class] = n
		}
		r.Counts[kind] = cp
	}
	for kind, lats := range rec.lats {
		if len(lats) == 0 {
			continue
		}
		r.Latency[kind] = summarize(lats)
		// The hit/miss sub-kinds re-file solve samples by serving path;
		// merging them too would double-count every solve in "all".
		if kind != KindSolveHit && kind != KindSolveMiss {
			all = append(all, lats...)
		}
	}
	if len(all) > 0 {
		r.Latency["all"] = summarize(all)
	}
	return r
}

// classTotal sums one outcome class across kinds.
func (r *Report) classTotal(class string) int {
	n := 0
	for _, byClass := range r.Counts {
		n += byClass[class]
	}
	return n
}

// Completed counts successful responses (ok + partial) across kinds.
func (r *Report) Completed() int {
	return r.classTotal(ClassOK) + r.classTotal(ClassPartial)
}

// Throughput is completed requests per second of elapsed wall time.
func (r *Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed()) / r.Elapsed.Seconds()
}

// Rate helpers, each a fraction of sent+dropped arrivals (0 when none).
func (r *Report) rate(class string) float64 {
	total := int(r.Sent) + r.classTotal(ClassDropped)
	if total == 0 {
		return 0
	}
	return float64(r.classTotal(class)) / float64(total)
}

func (r *Report) ErrorRate() float64   { return r.rate(ClassError) + r.rate(Class5xx) }
func (r *Report) RejectRate() float64  { return r.rate(Class429) + r.rate(Class503) }
func (r *Report) PartialRate() float64 { return r.rate(ClassPartial) }

// CacheHits and CacheMisses count completed solve responses by serving path
// (a response is a hit when the server answered it from its solve cache).
func (r *Report) CacheHits() int   { return r.Latency[KindSolveHit].Count }
func (r *Report) CacheMisses() int { return r.Latency[KindSolveMiss].Count }

// HitRate is the fraction of completed solves served from the cache.
func (r *Report) HitRate() float64 {
	total := r.CacheHits() + r.CacheMisses()
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits()) / float64(total)
}

// Print writes the human-readable SLO report.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "load: %.1f req/s offered for %v (%s)\n",
		r.Config.Rate, r.Config.Duration, strings.Join(r.Config.targets(), ", "))
	fmt.Fprintf(w, "  sent %d  completed %d  throughput %.1f req/s\n",
		r.Sent, r.Completed(), r.Throughput())
	kinds := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		byClass := r.Counts[kind]
		classes := make([]string, 0, len(byClass))
		for c := range byClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Fprintf(w, "  %s:", kind)
		for _, c := range classes {
			fmt.Fprintf(w, " %s=%d", c, byClass[c])
		}
		fmt.Fprintln(w)
	}
	lkinds := make([]string, 0, len(r.Latency))
	for k := range r.Latency {
		lkinds = append(lkinds, k)
	}
	sort.Strings(lkinds)
	for _, kind := range lkinds {
		s := r.Latency[kind]
		fmt.Fprintf(w, "  latency %-6s p50=%v  p90=%v  p99=%v  max=%v  (n=%d)\n",
			kind, s.P50.Round(time.Microsecond), s.P90.Round(time.Microsecond),
			s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond), s.Count)
	}
	if hits, misses := r.CacheHits(), r.CacheMisses(); hits > 0 || misses > 0 {
		fmt.Fprintf(w, "  cache: hits=%d  misses=%d  hit rate=%.1f%%\n",
			hits, misses, 100*r.HitRate())
	}
	fmt.Fprintf(w, "  rates: error=%.2f%%  reject=%.2f%%  partial=%.2f%%\n",
		100*r.ErrorRate(), 100*r.RejectRate(), 100*r.PartialRate())
}

// CheckSLO verifies the run against simple objectives: maxP99 bounds the
// merged p99 latency (0 = unchecked), max5xx caps server errors (pass a
// negative value to skip, 0 to require none), and at least one request must
// have completed. Returns nil when all hold.
func (r *Report) CheckSLO(maxP99 time.Duration, max5xx int) error {
	if r.Completed() == 0 {
		return fmt.Errorf("slo: no requests completed (sent %d)", r.Sent)
	}
	if n := r.classTotal(Class5xx); max5xx >= 0 && n > max5xx {
		return fmt.Errorf("slo: %d server errors (5xx), want <= %d", n, max5xx)
	}
	if p99 := r.Latency["all"].P99; maxP99 > 0 && p99 > maxP99 {
		return fmt.Errorf("slo: p99 latency %v, want <= %v", p99, maxP99)
	}
	return nil
}
