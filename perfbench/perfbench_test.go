package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {91, 10}, {100, 10},
	} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

// TestServeMixShares checks that no request kind holds a share near
// 50%, so the median and p90 fall inside one kind's distribution.
func TestServeMixShares(t *testing.T) {
	shares := map[string]float64{}
	for _, m := range mixBlock {
		shares[m.kind] += 1 / float64(len(mixBlock))
	}
	if len(shares) != 3 {
		t.Fatalf("kinds %v, want cold, update and repeat", shares)
	}
	var sum float64
	for k, s := range shares {
		sum += s
		if math.Abs(s-0.5) < 0.15 {
			t.Errorf("kind %s holds %.0f%% of requests, too close to 50%%", k, 100*s)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare with
// the program.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLayersMatchBenchmarkJSON checks that layers.json and
// BENCHMARK.json name the same per-layer metrics with the same units,
// and that every prediction names a known metric and workload.
func TestLayersMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	specs := mustSpecs()
	if len(specs) != len(b.PerLayer) {
		t.Fatalf("layers.json has %d metrics, BENCHMARK.json per_layer %d", len(specs), len(b.PerLayer))
	}
	known := map[string]bool{"error_rate": true}
	for _, m := range b.EndToEnd {
		known[m.Name] = true
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	for i, s := range specs {
		p := b.PerLayer[i]
		if s.Name != p.Name || s.Unit != p.Unit || s.Better != p.Better {
			t.Errorf("metric %d: layers.json %s/%s/%s, BENCHMARK.json %s/%s/%s",
				i, s.Name, s.Unit, s.Better, p.Name, p.Unit, p.Better)
		}
		for _, m := range s.Moves {
			if !known[m.Metric] || workloads[m.Workload] == nil {
				t.Errorf("%s predicts a move of %s on %s: unknown metric or workload", s.Name, m.Metric, m.Workload)
			}
		}
	}
}

// TestSmoke runs every workload, vc-dist included, for a second in both
// modes and checks
// that it passes, prints every named metric with its unit, and leaves
// no listener or program goroutine behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	units := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range b.EndToEnd {
		units["0"][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units["1"][m.Name] = m.Unit
	}
	for wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := runWith(wl, runConfig{seed: 7, seconds: time.Second, minOps: 4,
				trace: trace == "1", out: &stdout}, &stderr)
			if code != 0 {
				t.Errorf("%s trace=%s: exit %d: %s", wl, trace, code, stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%s trace=%s: last line: %v", wl, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 4 {
				t.Errorf("%s trace=%s: result %+v", wl, trace, res)
			}
			if len(res.Metrics) != len(units[trace]) {
				t.Errorf("%s trace=%s: %d metrics, want %d", wl, trace, len(res.Metrics), len(units[trace]))
			}
			for name, unit := range units[trace] {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", wl, trace, name, m, unit)
				}
				if !strings.Contains(stdout.String(), "metric: "+name+" ") {
					t.Errorf("%s trace=%s: metric %s not printed by name", wl, trace, name)
				}
			}
			if !strings.Contains(stdout.String(), "env: workload="+wl) {
				t.Errorf("%s trace=%s: no environment block", wl, trace)
			}
			checkNoLeftovers(t, wl)
		}
	}
}

// checkNoLeftovers waits for every listener, connection and program
// goroutine a run started to end.
func checkNoLeftovers(t *testing.T, workload string) {
	t.Helper()
	leftover := func() string {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "TestSmoke") || strings.Contains(g, "checkNoLeftovers") {
				continue
			}
			for _, mark := range []string{"anoncover/", "net/http.", "net.(*TCPListener)", "net.(*conn)"} {
				if strings.Contains(g, mark) {
					return g
				}
			}
		}
		return ""
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := leftover()
		if g == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s left a goroutine running:\n%s", workload, g)
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}
