package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"anoncover"
	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

// Declared bounds of the vc-grid workload.
const (
	gridSide = 100
	gridMaxW = 16
)

// maxLoop caps a timed loop that is still short of its minimum
// operation count when its seconds are up.
const maxLoop = 120 * time.Second

// loopOpen reports whether a timed loop that started at start and has
// issued ops of its minimum minOps operations should issue another.
func loopOpen(start time.Time, seconds time.Duration, ops, minOps int) bool {
	el := time.Since(start)
	return el < seconds || (ops < minOps && el < maxLoop)
}

// heapAlloc returns the bytes allocated so far by the process.
func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// vcLib is the library path of vc-grid: a compiled Solver plus the
// benchmark's own copy of the instance.
type vcLib struct {
	inst   *vcInstance
	solver *anoncover.Solver
}

// check runs the caller-side checks on one answer: the duality
// certificate through Verify, cover validity and weight against the
// benchmark's copy, and the round count predicted for the declared
// bounds.  A failure is recorded under the check's name.
func (l *vcLib) check(res *anoncover.VertexCoverResult, verr error, w []int64, f *failures) {
	check, err := answerCheck(verr, l.inst.checkCover(res.Cover, w, res.Weight), res.Rounds,
		anoncover.PredictedVertexCoverRounds(l.inst.maxDeg, gridMaxW))
	if err != nil {
		f.add(check, err)
	}
}

// solve is one untraced operation: a solve plus verify.
func (l *vcLib) solve(w []int64) (*anoncover.VertexCoverResult, error, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	res, err := l.solver.VertexCover(ctx, anoncover.WithWeights(w))
	if err != nil {
		return nil, err, nil
	}
	return res, nil, res.Verify()
}

// setupVCGrid hands the program the instance text, compiles it and
// runs the first operation; it returns the session and the set-up time.
func setupVCGrid(inst *vcInstance, body []byte, w0 []int64) (*vcLib, time.Duration, error) {
	t0 := time.Now()
	g, err := anoncover.ReadGraph(bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("check parse: %w", err)
	}
	s, err := anoncover.Compile(g, anoncover.WithEngine(anoncover.EngineSequential),
		anoncover.WithWeightBound(gridMaxW))
	if err != nil {
		return nil, 0, fmt.Errorf("check compile: %w", err)
	}
	l := &vcLib{inst: inst, solver: s}
	res, err, verr := l.solve(w0)
	if err != nil {
		s.Close()
		return nil, 0, fmt.Errorf("check first-solve: %w", err)
	}
	var f failures
	if l.check(res, verr, w0, &f); f.total() > 0 {
		s.Close()
		return nil, 0, fmt.Errorf("check first-answer: %s", f.String())
	}
	return l, time.Since(t0), nil
}

func runVCGrid(cfg runConfig) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	inst := gridInstance(gridSide, gridSide)
	w := randomWeights(rng, inst.n, gridMaxW)
	body := inst.text(w)

	l, setups, err := repeatSetup(func() (*vcLib, time.Duration, error) {
		return setupVCGrid(inst, body, w)
	}, func(l *vcLib) { l.solver.Close() })
	if err != nil {
		return nil, err
	}
	defer l.solver.Close()

	out := &outcome{env: env{workload: "vc-grid", seed: cfg.seed, callers: 1,
		loop: "closed, 1 caller, solve+verify per op", trace: cfg.trace}}
	lay := newLayers()
	var traced, untraced []float64
	runtime.GC()
	a0 := heapAlloc()
	start := time.Now()
	for i := 0; loopOpen(start, cfg.seconds, i, cfg.minOps); i++ {
		// Fresh weights drawn like randomWeights, into one reused buffer
		// so the benchmark's own allocations stay out of alloc_mb_per_op.
		for v := range w {
			w[v] = 1 + rng.Int63n(gridMaxW)
		}
		w[0] = gridMaxW
		out.attempted++
		var res *anoncover.VertexCoverResult
		var err, verr error
		if cfg.trace && i%2 == 1 {
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			var d time.Duration
			d, res, err, verr = tracedVC(ctx, l.solver, inst.maxDeg, gridMaxW, w, lay)
			cancel()
			traced = append(traced, ms(d))
		} else {
			t0 := time.Now()
			res, err, verr = l.solve(w)
			untraced = append(untraced, ms(time.Since(t0)))
		}
		if err != nil {
			out.fails.add("solve", err)
			continue
		}
		l.check(res, verr, w, &out.fails)
	}
	elapsed := time.Since(start)
	allocBytes := heapAlloc() - a0

	if !cfg.trace {
		out.metrics = endToEnd(cfg.out, untraced, out.attempted, out.attempted-out.fails.total(), elapsed, allocBytes, setups)
		return out, nil
	}

	if err := timeFront(lay, body, false, anoncover.WithEngine(anoncover.EngineSequential),
		anoncover.WithWeightBound(gridMaxW)); err != nil {
		return nil, fmt.Errorf("check front: %w", err)
	}
	ig, err := graph.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("check parse: %w", err)
	}
	rounds := anoncover.PredictedVertexCoverRounds(inst.maxDeg, gridMaxW)
	pool := sim.NewPool()
	defer pool.Close()
	skel, err := skeleton(ig.Flat(), rounds, sim.Options{Engine: sim.Sequential, Pool: pool}, 5)
	if err != nil {
		return nil, err
	}
	lay.set("sim.skeleton_ns_per_node_round", skel)
	lay.set("bench.trace_overhead_frac", median(traced)/median(untraced)-1)
	out.metrics = lay.metrics(mustSpecs(), cfg.out)
	return out, nil
}
