// Command perfbench is the repository's benchmark.  One invocation runs
// one workload for a fixed time, checks every answer, and prints an
// environment block, every metric by name with its unit, and as its
// last line one JSON object:
//
//	{"correct": true, "attempted": 150, "failed": 0, "metrics": {...}}
//
// Workloads (each one process, closed loop):
//
//	vc-grid    the library path: Solver.VertexCover + Result.Verify on
//	           grid-100x100, sequential engine, declared W=16
//	serve-mix  an in-process serve.Server on loopback, two callers
//	           replaying cold, weight-update and repeat requests
//	vc-dist    a serve.Server coordinating two in-process dist workers,
//	           one caller posting weight updates to grid-100x100
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same loop with half of the operations traced from outside
// the program (observer timestamps, allocation counts, the server's
// run records, run traces and stats) and reports the per-layer
// metrics named in layers.json.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload vc-grid --seed 1 --seconds 30 --trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// maxRun bounds a whole invocation: past it the run reports the
// workload as hung and exits non-zero.
const maxRun = 170 * time.Second

// opTimeout is the deadline of every single operation.  It lies well
// past vc-dist's frame timeout, so a distributed run that recovers
// from a timed-out barrier wait completes and shows as one slow
// operation instead of racing the caller's deadline.
const opTimeout = 60 * time.Second

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

// repeatSetup sets a workload up setupReps times.  Before each set-up
// it collects the heap outside the timed region, so every set-up
// starts from the same heap state.  It closes every session but the
// last, which it returns with the set-up times in seconds.
func repeatSetup[S any](setup func() (S, time.Duration, error), close func(S)) (S, []float64, error) {
	var s S
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			close(s)
		}
		runtime.GC()
		var d time.Duration
		var err error
		if s, d, err = setup(); err != nil {
			return s, nil, err
		}
		times = append(times, d.Seconds())
	}
	return s, times, nil
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	minOps  int
	trace   bool
	out     io.Writer // progress lines and per-kind summaries
}

// outcome is what every workload returns.
type outcome struct {
	env       env
	attempted int
	fails     failures
	metrics   map[string]metric
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"vc-grid":   runVCGrid,
	"serve-mix": runServeMix,
	"vc-dist":   runVCDist,
}

func main() {
	watchdog := time.AfterFunc(maxRun, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %v: check run-deadline: no result after %v\n", os.Args[1:], maxRun)
		os.Exit(1)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	watchdog.Stop()
	os.Exit(code)
}

// minOps is the fewest operations a run completes, running past
// --seconds if needed, so that p90 has ten samples beyond it.
const minOps = 100

// run parses the flags of one invocation and returns its exit code:
// 0 when every operation passed its checks, 1 when a check failed or
// the workload could not run, 2 for bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: vc-grid, serve-mix or vc-dist")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 30, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload vc-grid|serve-mix|vc-dist, --seconds > 0, --trace 0|1\n")
		return 2
	}
	return runWith(*workload, runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		minOps:  minOps,
		trace:   *trace == 1,
		out:     stdout,
	}, stderr)
}

// runWith runs one workload, prints its report to cfg.out and returns
// the exit code.
func runWith(workload string, cfg runConfig, stderr io.Writer) int {
	stdout := cfg.out
	out, err := safeRun(workloads[workload], cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", workload, err)
		return 1
	}
	printEnv(stdout, out.env, out.attempted)
	printMetrics(stdout, out.metrics)
	failed := out.fails.total()
	fmt.Fprintf(stdout, "error_rate: %d/%d\n", failed, out.attempted)
	res := result{Correct: failed == 0, Attempted: out.attempted, Failed: failed, Metrics: out.metrics}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", workload, err)
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "perfbench: workload %s: %s\n", workload, out.fails.String())
		return 1
	}
	return 0
}

// safeRun reports a panic in the workload as an error naming it.
func safeRun(wl func(runConfig) (*outcome, error), cfg runConfig) (out *outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("check no-panic: %v", r)
		}
	}()
	out, err = wl(cfg)
	if err == nil && out.attempted < cfg.minOps {
		err = fmt.Errorf("check min-ops: %d operations completed, want %d", out.attempted, cfg.minOps)
	}
	return out, err
}
