package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// quantile returns the nearest-rank p-th percentile of sorted samples:
// the value at 1-based rank ceil(p/100 · n).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples ranked above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - max(nearestRank(n, p), 1)
}

// nearestRank returns ceil(p/100 · n), computed so that rounding error
// in p·n/100 cannot push an exact rank up by one.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailLadder lists the percentiles a run may report, highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest percentile on the ladder with at
// least ten samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the environment block printed with every run.
type env struct {
	workload string
	seed     int64
	callers  int
	loop     string
	trace    bool
}

func printEnv(w io.Writer, e env, ops int) {
	fmt.Fprintf(w, "env: workload=%s seed=%d num_cpu=%d gomaxprocs=%d go=%s callers=%d loop=%s ops=%d trace=%v\n",
		e.workload, e.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		e.callers, e.loop, ops, e.trace)
}

// endToEnd reduces a timed loop to the end-to-end metrics: latency
// percentiles of the untraced operations (ms), completed operations per
// second, bytes allocated per attempted operation and the median
// set-up time.  It also prints which tail percentile the sample count
// supports and a coarse latency profile.
func endToEnd(w io.Writer, untraced []float64, attempted, completed int, elapsed time.Duration,
	allocBytes uint64, setups []float64) map[string]metric {

	s := sortedCopy(untraced)
	fmt.Fprintf(w, "tail: n=%d, highest percentile with >=10 samples beyond it: p%g\n",
		len(s), tailPercentile(len(s)))
	fmt.Fprintf(w, "latency ms:")
	for _, p := range []float64{10, 25, 50, 75, 90, 95} {
		fmt.Fprintf(w, " p%g=%.2f", p, quantile(s, p))
	}
	fmt.Fprintln(w)
	return map[string]metric{
		"latency_p50_ms":   {quantile(s, 50), "ms"},
		"latency_p90_ms":   {quantile(s, 90), "ms"},
		"throughput_ops_s": {float64(completed) / elapsed.Seconds(), "1/s"},
		"alloc_mb_per_op":  {float64(allocBytes) / 1e6 / float64(attempted), "MB"},
		"setup_s":          {median(setups), "s"},
	}
}

// printMetrics writes every metric as "name = value unit", sorted by
// name, so a reader sees each by name with its unit.
func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric: %-34s = %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func printResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// failures records failed operations by the check that failed, so a
// failing run names its checks.
type failures struct {
	byCheck map[string]int
	first   map[string]string
}

func (f *failures) add(check string, err error) {
	if f.byCheck == nil {
		f.byCheck = make(map[string]int)
		f.first = make(map[string]string)
	}
	if f.byCheck[check] == 0 {
		f.first[check] = err.Error()
	}
	f.byCheck[check]++
}

func (f *failures) total() int {
	n := 0
	for _, c := range f.byCheck {
		n += c
	}
	return n
}

func (f *failures) merge(o *failures) {
	for k, c := range o.byCheck {
		if f.byCheck == nil || f.byCheck[k] == 0 {
			f.add(k, fmt.Errorf("%s", o.first[k]))
			f.byCheck[k] = c
			continue
		}
		f.byCheck[k] += c
	}
}

func (f *failures) String() string {
	var parts []string
	for k, c := range f.byCheck {
		parts = append(parts, fmt.Sprintf("%s: %d failed (first: %s)", k, c, f.first[k]))
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}
