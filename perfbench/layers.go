package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"anoncover"
	"anoncover/internal/core/edgepack"
	"anoncover/internal/sim"
)

// layerSpec is one per-layer metric: its unit, which direction is
// better, how it is measured from outside the program, and which
// end-to-end metric it should move on which workload.
type layerSpec struct {
	Name       string `json:"name"`
	Unit       string `json:"unit"`
	Better     string `json:"better"`
	MeasuredBy string `json:"measured_by"`
	Moves      []struct {
		Metric   string `json:"metric"`
		Workload string `json:"workload"`
	} `json:"moves"`
}

//go:embed layers.json
var layersJSON []byte

// mustSpecs returns the per-layer metric specs embedded from
// layers.json; a malformed file is a build defect, so it panics
// (reported by safeRun).
func mustSpecs() []layerSpec {
	var doc struct {
		Metrics []layerSpec `json:"metrics"`
	}
	if err := json.Unmarshal(layersJSON, &doc); err != nil {
		panic(fmt.Sprintf("layers.json: %v", err))
	}
	return doc.Metrics
}

// layers accumulates per-layer observations.  Samples reduce to their
// mean, so time components stay additive: on a workload whose
// operation the components cover, their means sum to the mean traced
// operation time.  Counts reduce to their total.
type layers struct {
	samples map[string][]float64
	counts  map[string]float64
}

func newLayers() *layers {
	return &layers{samples: make(map[string][]float64), counts: make(map[string]float64)}
}

func (l *layers) add(name string, v float64)   { l.samples[name] = append(l.samples[name], v) }
func (l *layers) count(name string, v float64) { l.counts[name] += v }
func (l *layers) set(name string, v float64)   { l.counts[name] = v }

// metrics reduces the observations to one value per spec.  A layer the
// workload never reached reports 0 and is listed as bypassed.
func (l *layers) metrics(specs []layerSpec, w io.Writer) map[string]metric {
	out := make(map[string]metric, len(specs))
	var bypassed []string
	for _, s := range specs {
		switch {
		case len(l.samples[s.Name]) > 0:
			out[s.Name] = metric{mean(l.samples[s.Name]), s.Unit}
		default:
			v, ok := l.counts[s.Name]
			if !ok {
				bypassed = append(bypassed, s.Name)
			}
			out[s.Name] = metric{v, s.Unit}
		}
	}
	sort.Strings(bypassed)
	fmt.Fprintf(w, "bypassed layers (reported as 0): %v\n", bypassed)
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// stamp is one observer callback: the round just completed and when.
type stamp struct {
	round int
	at    time.Time
}

// roundClock records observer callbacks for one run.
type roundClock struct {
	stamps []stamp
}

func (c *roundClock) observe(ri anoncover.RoundInfo) {
	c.stamps = append(c.stamps, stamp{ri.Round, time.Now()})
}

// finalAttempt returns the index of the callback that opened the last
// attempt of the run and how many attempts came before it: a round
// number that does not grow means the wire path overflowed and the run
// started over on the boxed path.
func (c *roundClock) finalAttempt() (first, reruns int) {
	for i := 1; i < len(c.stamps); i++ {
		if c.stamps[i].round <= c.stamps[i-1].round {
			first, reruns = i, reruns+1
		}
	}
	return first, reruns
}

// split is one run's wall time attributed from outside: prerun from
// the call to the end of round 1 (which includes round 1 itself, a
// Phase I offer round), rerun from there to the end of round 1 of the
// final attempt (nonzero only when the wire path overflowed and the
// run repeated boxed), each later round of the final attempt to the
// schedule segment it belongs to, and result from the last round to
// the return.  wasted counts the callbacks of abandoned attempts.
type split struct {
	prerun, rerun, result time.Duration
	segments              []time.Duration
	reruns, wasted        int
}

func (c *roundClock) split(start, end time.Time, sched sim.Schedule, nseg int) split {
	sp := split{segments: make([]time.Duration, nseg)}
	if len(c.stamps) == 0 {
		sp.prerun = end.Sub(start)
		return sp
	}
	final, reruns := c.finalAttempt()
	sp.reruns, sp.wasted = reruns, final
	sp.prerun = c.stamps[0].at.Sub(start)
	sp.rerun = c.stamps[final].at.Sub(c.stamps[0].at)
	for i := final + 1; i < len(c.stamps); i++ {
		seg, _ := sched.Locate(c.stamps[i].round)
		sp.segments[seg] += c.stamps[i].at.Sub(c.stamps[i-1].at)
	}
	sp.result = end.Sub(c.stamps[len(c.stamps)-1].at)
	return sp
}

// edgepackSegments names the four segments of edgepack's schedule.
var edgepackSegments = []string{"edgepack.phase1_ms", "edgepack.cv_ms", "edgepack.shift_ms", "edgepack.stars_ms"}

func allocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// tracedVC runs one traced vertex-cover solve plus verify through the
// library and records its layer split.  It returns the traced
// operation time, the result for the caller's checks, the solve error
// and the Verify error.
func tracedVC(ctx context.Context, s *anoncover.Solver, delta int, maxW int64, w []int64,
	l *layers) (time.Duration, *anoncover.VertexCoverResult, error, error) {

	sched := edgepack.ScheduleFor(sim.Params{Delta: delta, W: maxW})
	clk := &roundClock{stamps: make([]stamp, 0, 2*sched.Total())}
	a0 := allocs()
	t0 := time.Now()
	res, err := s.VertexCover(ctx, anoncover.WithWeights(w), anoncover.WithObserver(clk.observe))
	t1 := time.Now()
	if err != nil {
		return 0, nil, err, nil
	}
	a1 := allocs()
	t2 := time.Now()
	verr := res.Verify()
	t3 := time.Now()
	a2 := allocs()

	sp := clk.split(t0, t1, sched, len(edgepackSegments))
	l.add("api.prerun_ms", ms(sp.prerun))
	l.add("api.result_ms", ms(sp.result))
	l.add("edgepack.rerun_ms", ms(sp.rerun))
	var attributed time.Duration = sp.prerun + sp.rerun + sp.result
	for i, name := range edgepackSegments {
		l.add(name, ms(sp.segments[i]))
		attributed += sp.segments[i]
	}
	l.add("check.verify_ms", ms(t3.Sub(t2)))
	attributed += t3.Sub(t2)
	l.add("bench.unattributed_ms", ms(t3.Sub(t0)-attributed))
	l.add("api.allocs_per_op", float64(a1-a0))
	l.add("check.allocs_per_op", float64(a2-a1))
	l.count("edgepack.wire_reruns", float64(sp.reruns))
	l.count("edgepack.wasted_rounds", float64(sp.wasted))
	l.add("sim.rounds", float64(res.Rounds))
	l.add("sim.messages", float64(res.Messages))
	l.add("sim.bytes", float64(res.Bytes))
	return t3.Sub(t0), res, nil, verr
}

// tracedSC runs one traced set-cover solve plus verify and records the
// per-round cost of fracpack; it returns like tracedVC.
func tracedSC(ctx context.Context, s *anoncover.SetCoverSolver, w []int64,
	l *layers) (*anoncover.SetCoverResult, error, error) {

	clk := &roundClock{stamps: make([]stamp, 0, 1024)}
	res, err := s.SetCover(ctx, anoncover.WithWeights(w), anoncover.WithObserver(clk.observe))
	if err != nil {
		return nil, err, nil
	}
	t1 := time.Now()
	verr := res.Verify()
	l.add("check.verify_ms", ms(time.Since(t1)))
	final, _ := clk.finalAttempt()
	if last := len(clk.stamps) - 1; last > final {
		d := clk.stamps[last].at.Sub(clk.stamps[final].at)
		l.add("fracpack.round_us", float64(d.Nanoseconds())/1e3/float64(last-final))
	}
	l.add("fracpack.rounds", float64(res.Rounds))
	return res, nil, verr
}

// timeFront times the front of the pipeline on one instance body:
// parse, fingerprint and compile, each from outside.
func timeFront(l *layers, body []byte, setCover bool, opts ...anoncover.Option) error {
	var g *anoncover.Graph
	var ins *anoncover.SetCoverInstance
	var err error
	t0 := time.Now()
	if setCover {
		ins, err = anoncover.ReadSetCover(bytes.NewReader(body))
	} else {
		g, err = anoncover.ReadGraph(bytes.NewReader(body))
	}
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	t1 := time.Now()
	if setCover {
		_ = ins.Fingerprint()
	} else {
		_ = g.Fingerprint()
	}
	t2 := time.Now()
	var s interface{ Close() error }
	if setCover {
		s, err = anoncover.CompileSetCover(ins, opts...)
	} else {
		s, err = anoncover.Compile(g, opts...)
	}
	t3 := time.Now()
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	s.Close()
	l.add("graph.parse_ms", ms(t1.Sub(t0)))
	l.add("graph.fingerprint_ms", ms(t2.Sub(t1)))
	l.add("compile.ms", ms(t3.Sub(t2)))
	return nil
}
