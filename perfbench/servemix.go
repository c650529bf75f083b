package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"anoncover"
	"anoncover/internal/graph"
	"anoncover/internal/serve"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// serve-mix instance families.
const (
	famGrid    = "grid"    // VC grids, sides 20-60, W=16
	famBounded = "bounded" // VC bounded-degree graphs, n≈4000, Δ=6, W=20
	famSC      = "sc"      // set cover, s=u≈1000, f=2, k=3, W=4
)

// Request kinds.
const (
	kindCold   = "cold"   // full POST of a topology never seen before
	kindUpdate = "update" // weights-only POST to a cached fingerprint
	kindRepeat = "repeat" // an identical earlier request, served by the memo
)

// mixSlot is one request of a caller's block.
type mixSlot struct{ kind, family string }

// mixBlock is the fixed composition of every 40 consecutive requests
// of a caller; only the order within a block is random.  Fixing the
// counts keeps the mix identical from seed to seed, and every kind's
// share (cold 10%, update 70%, repeat 20%) well away from 50%.
//
// Set-cover updates are 65% of all requests, so the median and p90
// both fall inside their latency distribution: below them sit the
// memo hits and the cheap grids, above them the rare bounded-degree
// runs.  With the bounded-degree share any larger, p90 would sit on
// the edge between set-cover and bounded-degree runs and jump between
// the two from run to run.
var mixBlock = func() []mixSlot {
	var b []mixSlot
	add := func(n int, kind, fam string) {
		for i := 0; i < n; i++ {
			b = append(b, mixSlot{kind, fam})
		}
	}
	add(2, kindCold, famGrid)
	add(2, kindCold, famSC)
	add(1, kindUpdate, famGrid)
	add(26, kindUpdate, famSC)
	add(1, kindUpdate, famBounded)
	add(2, kindRepeat, famGrid)
	add(4, kindRepeat, famSC)
	add(2, kindRepeat, famBounded)
	return b
}()

// Per-family bounds.
var familyMaxW = map[string]int64{famGrid: 16, famBounded: 20, famSC: 4}

// mixTopology is one serve-mix instance: a hot topology, which the
// server caches from set-up on and every caller keeps hitting, or a
// cold one posted once.
type mixTopology struct {
	family string
	vc     *vcInstance
	sc     *scInstance
	w0     []int64
	body0  []byte // the full body with weights w0
	fp     string
}

func (t *mixTopology) size() int {
	if t.sc != nil {
		return t.sc.s
	}
	return t.vc.n
}

func (t *mixTopology) body(w []int64) []byte {
	if t.sc != nil {
		return t.sc.text(w)
	}
	return t.vc.text(w)
}

func (t *mixTopology) path() string {
	if t.sc != nil {
		return "/v1/setcover"
	}
	return "/v1/vertexcover"
}

// hotSet generates the hot topologies of a seed: grids with sides 20,
// 33, 46 and 60, four bounded-degree graphs and two set-cover
// instances.  Sizes are fixed so that the work per request does not
// vary from seed to seed; the seed draws the bounded-degree and
// set-cover structures and every weight vector.
func hotSet(rng *rand.Rand) []*mixTopology {
	var hot []*mixTopology
	for _, side := range []int{20, 33, 46, 60} {
		hot = append(hot, &mixTopology{family: famGrid, vc: gridInstance(side, side)})
	}
	for i := 0; i < 4; i++ {
		hot = append(hot, &mixTopology{family: famBounded, vc: boundedDegreeInstance(rng, 4000, 8000, 6)})
	}
	for i := 0; i < 2; i++ {
		hot = append(hot, &mixTopology{family: famSC, sc: randomSetCover(rng, 1000, 1000, 2, 3)})
	}
	for _, t := range hot {
		t.w0 = randomWeights(rng, t.size(), familyMaxW[t.family])
		t.body0 = t.body(t.w0)
	}
	return hot
}

// send posts one request and checks the answer against the caller's
// copy of the instance; it returns the fingerprint the server reported.
func (t *mixTopology) send(h *harness, path string, body []byte, w []int64) (reply, string, string, error) {
	r, err := h.do(http.MethodPost, path+"?verify=true", body)
	if err != nil {
		return r, "", "transport", err
	}
	if t.sc != nil {
		v, check, err := checkSCReply(r, t.sc, w)
		return r, v.Fingerprint, check, err
	}
	v, check, err := checkVCReply(r, t.vc, w)
	return r, v.Fingerprint, check, err
}

// setupServeMix starts the server, posts every hot topology cold and
// pins it, so cold requests in the loop never evict a hot topology.
// The bodies are rendered before, so the set-up time is the server's.
func setupServeMix(hot []*mixTopology) (*harness, time.Duration, error) {
	t0 := time.Now()
	h, err := startHarness(serve.Config{}, 0)
	if err != nil {
		return nil, 0, err
	}
	for _, t := range hot {
		_, fp, check, err := t.send(h, t.path(), t.body0, t.w0)
		if err != nil {
			h.close()
			return nil, 0, fmt.Errorf("check setup-%s: %s: %w", check, t.family, err)
		}
		t.fp = fp
		if r, err := h.do(http.MethodPost, "/v1/solvers/"+fp+"/pin", nil); err != nil || r.status != http.StatusOK {
			h.close()
			return nil, 0, fmt.Errorf("check setup-pin: %s: status %d: %v", t.family, r.status, err)
		}
	}
	return h, time.Since(t0), nil
}

// planRate is how many requests per second a caller builds before the
// timed loop, about twice the rate a caller completes on a 2-vCPU
// host.  Building them ahead keeps instance generation and body
// rendering out of the loop's time and allocation; a caller that runs
// out builds the rest inside the loop and says how many.
const planRate = 25

// mixRequest is one request of a caller, built before it is sent.
type mixRequest struct {
	slot mixSlot
	t    *mixTopology
	path string
	body []byte
	w    []int64
}

// mixCaller is one closed-loop caller of serve-mix.
type mixCaller struct {
	rng   *rand.Rand
	hot   map[string][]*mixTopology
	last  map[*mixTopology][]int64 // weights of the last request per topology
	grids [][2]int                 // this caller's unused cold grid shapes
	block []mixSlot
	plan  []mixRequest // requests built ahead of the timed loop
	late  int          // requests built inside the timed loop

	traced, untraced []float64 // latencies in ms
	byKind           map[string][]float64
	attempted        int
	fails            failures
	lay              *layers
}

func newMixCaller(id int, seed int64, hot []*mixTopology) *mixCaller {
	c := &mixCaller{
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(id))),
		hot:    map[string][]*mixTopology{},
		last:   map[*mixTopology][]int64{},
		byKind: map[string][]float64{},
		lay:    newLayers(),
	}
	for _, t := range hot {
		c.hot[t.family] = append(c.hot[t.family], t)
		c.last[t] = t.w0
	}
	// Cold grids are r×c with r≠c; the callers split the shapes by the
	// parity of r+c, so no cold topology is ever posted twice.
	for r := 20; r <= 60; r++ {
		for col := 20; col <= 60; col++ {
			if r != col && (r+col)%2 == id%2 {
				c.grids = append(c.grids, [2]int{r, col})
			}
		}
	}
	c.rng.Shuffle(len(c.grids), func(i, j int) { c.grids[i], c.grids[j] = c.grids[j], c.grids[i] })
	return c
}

func (c *mixCaller) next() mixSlot {
	if len(c.block) == 0 {
		c.block = append(c.block, mixBlock...)
		c.rng.Shuffle(len(c.block), func(i, j int) { c.block[i], c.block[j] = c.block[j], c.block[i] })
	}
	s := c.block[0]
	c.block = c.block[1:]
	return s
}

// prepare builds n requests ahead.
func (c *mixCaller) prepare(n int) {
	for i := 0; i < n; i++ {
		c.plan = append(c.plan, c.request(c.next()))
	}
}

// pop returns the next request, built ahead when the plan has one.
func (c *mixCaller) pop() mixRequest {
	if len(c.plan) == 0 {
		c.late++
		return c.request(c.next())
	}
	q := c.plan[0]
	c.plan = c.plan[1:]
	return q
}

// request builds the request of slot s: its topology, path, body and
// the weights it carries.
func (c *mixCaller) request(s mixSlot) mixRequest {
	if s.kind == kindCold {
		t := &mixTopology{family: s.family}
		if s.family == famGrid {
			shape := c.grids[0]
			c.grids = c.grids[1:]
			t.vc = gridInstance(shape[0], shape[1])
		} else {
			t.sc = randomSetCover(c.rng, 1000, 1000, 2, 3)
		}
		w := randomWeights(c.rng, t.size(), familyMaxW[s.family])
		return mixRequest{s, t, t.path(), t.body(w), w}
	}
	fam := c.hot[s.family]
	t := fam[c.rng.Intn(len(fam))]
	w := c.last[t]
	if s.kind == kindUpdate {
		w = randomWeights(c.rng, t.size(), familyMaxW[s.family])
		c.last[t] = w
	}
	return mixRequest{s, t, t.path() + "/" + t.fp, weightsBody(w), w}
}

// need is the fewest requests a run sends over all its callers.
func need(cfg runConfig, callers int) int {
	if cfg.trace {
		return max(cfg.minOps, 2*len(mixBlock)*callers) // one untraced and one traced block each
	}
	return cfg.minOps
}

func (c *mixCaller) run(h *harness, start time.Time, cfg runConfig, callers int) {
	for i := 0; loopOpen(start, cfg.seconds, callers*c.attempted, need(cfg, callers)); i++ {
		q := c.pop()
		s, t := q.slot, q.t
		c.attempted++
		r, fp, check, err := t.send(h, q.path, q.body, q.w)
		if err != nil {
			c.fails.add(check, fmt.Errorf("%s %s: %w", s.kind, s.family, err))
			continue
		}
		if s.kind != kindCold && fp != t.fp {
			c.fails.add("fingerprint", fmt.Errorf("%s %s: fingerprint %s, want %s", s.kind, s.family, fp, t.fp))
			continue
		}
		d := ms(r.latency)
		c.byKind[s.kind+" "+s.family] = append(c.byKind[s.kind+" "+s.family], d)
		// Whole blocks alternate between untraced and traced, so both
		// halves carry the same request mix.
		if cfg.trace && (i/len(mixBlock))%2 == 1 {
			c.traced = append(c.traced, d)
			if err := h.traceRequest(c.lay, r); err != nil {
				c.fails.add("trace", err)
			}
			continue
		}
		c.untraced = append(c.untraced, d)
	}
}

func runServeMix(cfg runConfig) (*outcome, error) {
	const callers = 2
	rng := rand.New(rand.NewSource(cfg.seed))
	hot := hotSet(rng)

	h, setups, err := repeatSetup(func() (*harness, time.Duration, error) {
		return setupServeMix(hot)
	}, (*harness).close)
	if err != nil {
		return nil, err
	}
	defer h.close()

	out := &outcome{env: env{workload: "serve-mix", seed: cfg.seed, callers: callers,
		loop: "closed, 2 callers, one HTTP request per op", trace: cfg.trace}}
	cs := make([]*mixCaller, callers)
	for i := range cs {
		cs[i] = newMixCaller(i, cfg.seed, hot)
		cs[i].prepare(max(int(cfg.seconds.Seconds()*planRate), need(cfg, callers)))
	}
	st0, err := h.stats()
	if err != nil {
		return nil, fmt.Errorf("check stats: %w", err)
	}
	runtime.GC()
	a0 := heapAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(h, start, cfg, callers)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	allocBytes := heapAlloc() - a0
	st1, err := h.stats()
	if err != nil {
		return nil, fmt.Errorf("check stats: %w", err)
	}

	var traced, untraced []float64
	byKind := map[string][]float64{}
	lay := newLayers()
	late := 0
	for _, c := range cs {
		late += c.late
		out.attempted += c.attempted
		out.fails.merge(&c.fails)
		traced = append(traced, c.traced...)
		untraced = append(untraced, c.untraced...)
		for k, v := range c.byKind {
			byKind[k] = append(byKind[k], v...)
		}
		for k, v := range c.lay.samples {
			lay.samples[k] = append(lay.samples[k], v...)
		}
	}
	fmt.Fprintf(cfg.out, "requests built inside the timed loop: %d of %d\n", late, out.attempted)
	for _, k := range []string{kindRepeat, kindUpdate, kindCold} {
		for _, f := range []string{famGrid, famSC, famBounded} {
			if s := sortedCopy(byKind[k+" "+f]); len(s) > 0 {
				fmt.Fprintf(cfg.out, "kind %-6s %-7s n=%-4d p10=%.2fms p50=%.2fms p90=%.2fms\n", k, f, len(s),
					quantile(s, 10), quantile(s, 50), quantile(s, 90))
			}
		}
	}

	if !cfg.trace {
		out.metrics = endToEnd(cfg.out, untraced, out.attempted, out.attempted-out.fails.total(), elapsed, allocBytes, setups)
		return out, nil
	}
	statsDelta(lay, st0, st1, out.attempted)
	lay.set("bench.trace_overhead_frac", median(traced)/median(untraced)-1)
	h.close()
	if err := replayServeMix(lay, hot, rng); err != nil {
		return nil, err
	}
	out.metrics = lay.metrics(mustSpecs(), cfg.out)
	return out, nil
}

// replayServeMix replays the hot topologies through the library with
// the server's session defaults (sharded engine, GOMAXPROCS shards),
// attributing their time to layers: parse, fingerprint and compile of
// every body; observer-split solves of every vertex-cover topology
// (four weight vectors per bounded-degree graph, whose runs may
// overflow the wire lane); observer-timed set-cover solves; and the
// engine skeleton on the first bounded-degree graph.
func replayServeMix(lay *layers, hot []*mixTopology, rng *rand.Rand) error {
	opts := []anoncover.Option{anoncover.WithEngine(anoncover.EngineSharded)}
	for _, t := range hot {
		body := t.body0
		if err := timeFront(lay, body, t.sc != nil, opts...); err != nil {
			return fmt.Errorf("check front: %s: %w", t.family, err)
		}
		reps := 2
		if t.family == famBounded {
			reps = 4
		}
		if err := replayTopology(lay, t, body, reps, rng, opts); err != nil {
			return err
		}
	}
	var b *mixTopology
	for _, t := range hot {
		if t.family == famBounded {
			b = t
			break
		}
	}
	ig, err := graph.Parse(bytes.NewReader(b.body0))
	if err != nil {
		return fmt.Errorf("check parse: %w", err)
	}
	k := runtime.GOMAXPROCS(0)
	st := shard.BuildK(ig.Flat(), k)
	pool := sim.NewPool()
	defer pool.Close()
	skel, err := skeleton(st, b.vc.predictedRounds(b.w0),
		sim.Options{Engine: sim.Sharded, Workers: st.K(), Pool: pool}, 5)
	if err != nil {
		return err
	}
	lay.set("sim.skeleton_ns_per_node_round", skel)
	return nil
}

// replayTopology compiles one topology and runs reps traced solves
// with fresh weights; an answer that fails a check fails the replay.
func replayTopology(lay *layers, t *mixTopology, body []byte, reps int, rng *rand.Rand,
	opts []anoncover.Option) error {

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	maxW := familyMaxW[t.family]
	var check string
	if t.sc != nil {
		ins, err := anoncover.ReadSetCover(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("check parse: %w", err)
		}
		s, err := anoncover.CompileSetCover(ins, opts...)
		if err != nil {
			return fmt.Errorf("check compile: %w", err)
		}
		defer s.Close()
		for i := 0; i < reps && err == nil; i++ {
			w := randomWeights(rng, t.size(), maxW)
			var res *anoncover.SetCoverResult
			var verr error
			if res, err, verr = tracedSC(ctx, s, w, lay); err != nil {
				check = "solve"
				break
			}
			check, err = answerCheck(verr, t.sc.checkCover(res.Cover, w, res.Weight), res.Rounds, t.sc.predictedRounds(w))
		}
		if err != nil {
			return fmt.Errorf("check %s: replay %s: %w", check, t.family, err)
		}
		return nil
	}
	g, err := anoncover.ReadGraph(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("check parse: %w", err)
	}
	s, err := anoncover.Compile(g, opts...)
	if err != nil {
		return fmt.Errorf("check compile: %w", err)
	}
	defer s.Close()
	for i := 0; i < reps && err == nil; i++ {
		w := randomWeights(rng, t.size(), maxW)
		var res *anoncover.VertexCoverResult
		var verr error
		if _, res, err, verr = tracedVC(ctx, s, t.vc.maxDeg, maxW, w, lay); err != nil {
			check = "solve"
			break
		}
		check, err = answerCheck(verr, t.vc.checkCover(res.Cover, w, res.Weight), res.Rounds, t.vc.predictedRounds(w))
	}
	if err != nil {
		return fmt.Errorf("check %s: replay %s: %w", check, t.family, err)
	}
	return nil
}
