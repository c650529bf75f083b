package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"anoncover"
	"anoncover/internal/dist"
	"anoncover/internal/graph"
	"anoncover/internal/serve"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// About one weight vector in 700 on grid-100x100 with W=16 overflows
// edgepack's wire lane (--seed 101 meets one at operation 33).  The
// library reruns such a solve boxed and doubles its cost.  On the fleet
// the shard that overflowed stops, while its peer waits out the frame
// timeout at the round barrier: the coordinator collects every shard's
// reply before it aborts the run and reruns it boxed.  With the
// default 30 s timeout one such stall halves a run's throughput, so
// vc-dist runs fleet and coordinator with a 2 s timeout, as
// `anoncoverd -dist-timeout 2s` does.  Each stall still costs that
// timeout; the run counts the operations it hit as stalled.
const distFrameTimeout = 2 * time.Second

// distWorkers is the fleet size of vc-dist.
const distWorkers = 2

// setupVCDist starts the workers and the coordinating server and posts
// the grid cold, which compiles the distributed session and runs it.
func setupVCDist(inst *vcInstance, body []byte, w0 []int64) (*harness, string, time.Duration, error) {
	t0 := time.Now()
	h, err := startHarness(serve.Config{DistTimeout: distFrameTimeout}, distWorkers)
	if err != nil {
		return nil, "", 0, err
	}
	r, err := h.do(http.MethodPost, "/v1/vertexcover?verify=true", body)
	if err != nil {
		h.close()
		return nil, "", 0, fmt.Errorf("check setup-transport: %w", err)
	}
	v, check, err := checkVCReply(r, inst, w0)
	if err == nil && v.Cache == "dist_failover" {
		check, err = "failover", fmt.Errorf("first answer served by the local failover path")
	}
	if err != nil {
		h.close()
		return nil, "", 0, fmt.Errorf("check setup-%s: %w", check, err)
	}
	return h, v.Fingerprint, time.Since(t0), nil
}

func runVCDist(cfg runConfig) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	inst := gridInstance(gridSide, gridSide)
	w := randomWeights(rng, inst.n, gridMaxW)
	body := inst.text(w)

	var fp string
	h, setups, err := repeatSetup(func() (h *harness, d time.Duration, err error) {
		h, fp, d, err = setupVCDist(inst, body, w)
		return h, d, err
	}, (*harness).close)
	if err != nil {
		return nil, err
	}
	defer h.close()

	out := &outcome{env: env{workload: "vc-dist", seed: cfg.seed, callers: 1,
		loop: "closed, 1 caller, one HTTP request per op", trace: cfg.trace}}
	lay := newLayers()
	st0, err := h.stats()
	if err != nil {
		return nil, fmt.Errorf("check stats: %w", err)
	}
	var traced, untraced []float64
	stalled := 0
	runtime.GC()
	a0 := heapAlloc()
	start := time.Now()
	for i := 0; loopOpen(start, cfg.seconds, i, cfg.minOps); i++ {
		w = randomWeights(rng, inst.n, gridMaxW)
		out.attempted++
		r, err := h.do(http.MethodPost, "/v1/vertexcover/"+fp+"?verify=true", weightsBody(w))
		if err != nil {
			out.fails.add("transport", err)
			continue
		}
		if r.latency >= distFrameTimeout {
			stalled++
		}
		v, check, err := checkVCReply(r, inst, w)
		if err != nil {
			out.fails.add(check, err)
			continue
		}
		if v.Cache == "dist_failover" {
			out.fails.add("failover", fmt.Errorf("request %d served by the local failover path", i))
			continue
		}
		d := ms(r.latency)
		if cfg.trace && i%2 == 1 {
			traced = append(traced, d)
			err := h.traceRequest(lay, r)
			if err == nil {
				err = h.traceDist(lay, r)
			}
			if err != nil {
				out.fails.add("trace", err)
			}
			continue
		}
		untraced = append(untraced, d)
	}
	elapsed := time.Since(start)
	allocBytes := heapAlloc() - a0
	st1, err := h.stats()
	if err != nil {
		return nil, fmt.Errorf("check stats: %w", err)
	}
	fmt.Fprintf(cfg.out, "stalled: %d of %d operations waited out the %v frame timeout\n",
		stalled, out.attempted, distFrameTimeout)

	if !cfg.trace {
		out.metrics = endToEnd(cfg.out, untraced, out.attempted, out.attempted-out.fails.total(), elapsed, allocBytes, setups)
		return out, nil
	}
	statsDelta(lay, st0, st1, out.attempted)
	lay.set("dist.stalled_ops", float64(stalled))
	lay.set("bench.trace_overhead_frac", median(traced)/median(untraced)-1)
	h.close()
	if err := replayVCDist(lay, inst, body, rng); err != nil {
		return nil, err
	}
	out.metrics = lay.metrics(mustSpecs(), cfg.out)
	return out, nil
}

// replayVCDist attributes the fleet's node-program work from the
// library side: the grid replayed on the sharded engine with the
// fleet's shard count, and the engine skeleton run on a loopback
// dist.Cluster of the same size, the distributed engine's in-process
// deployment.
func replayVCDist(lay *layers, inst *vcInstance, body []byte, rng *rand.Rand) error {
	opts := []anoncover.Option{anoncover.WithEngine(anoncover.EngineSharded), anoncover.WithWorkers(distWorkers)}
	if err := timeFront(lay, body, false, opts...); err != nil {
		return fmt.Errorf("check front: %w", err)
	}
	t := &mixTopology{family: famGrid, vc: inst}
	if err := replayTopology(lay, t, body, 4, rng, opts); err != nil {
		return err
	}
	ig, err := graph.Parse(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("check parse: %w", err)
	}
	st := shard.BuildK(ig.Flat(), distWorkers)
	rounds := anoncover.PredictedVertexCoverRounds(inst.maxDeg, gridMaxW)
	skel, err := skeleton(st, rounds, sim.Options{Engine: sim.Distributed, Workers: distWorkers,
		Dist: dist.NewCluster(distWorkers)}, 5)
	if err != nil {
		return err
	}
	lay.set("sim.skeleton_ns_per_node_round", skel)
	return nil
}
