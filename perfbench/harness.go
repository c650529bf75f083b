package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"anoncover/internal/dist"
	"anoncover/internal/obs"
	"anoncover/internal/serve"
)

// harness is one in-process service: optional dist workers, a
// serve.Server and its loopback listener, and the client that talks to
// it.  close stops all of it and waits for every goroutine it started.
type harness struct {
	workers []*dist.Worker
	srv     *serve.Server
	hs      *http.Server
	base    string
	client  *http.Client
	wg      sync.WaitGroup
	once    sync.Once
}

// startHarness brings up nWorkers dist workers and a server configured
// with cfg (its WorkerAddrs filled in when there are workers).  A
// non-zero cfg.DistTimeout is given to the workers too, as anoncoverd's
// -dist-timeout flag does.
func startHarness(cfg serve.Config, nWorkers int) (h *harness, err error) {
	h = &harness{}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	for i := 0; i < nWorkers; i++ {
		w := dist.NewWorker()
		if cfg.DistTimeout > 0 {
			w.FrameTimeout = cfg.DistTimeout
		}
		if err := w.Listen("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("check worker-listen: %w", err)
		}
		h.workers = append(h.workers, w)
		cfg.WorkerAddrs = append(cfg.WorkerAddrs, w.Addr())
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			w.Serve()
		}()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("check server-listen: %w", err)
	}
	h.srv = serve.New(cfg)
	h.hs = &http.Server{Handler: h.srv.Handler()}
	h.base = "http://" + ln.Addr().String()
	h.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.hs.Serve(ln)
	}()
	return h, nil
}

// close is idempotent; a traced run closes the service before its
// library replay, and the deferred close then finds nothing to do.
func (h *harness) close() {
	h.once.Do(func() {
		if h.hs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			h.hs.Shutdown(ctx) // past the deadline, Serve still returns and wg.Wait ends
			cancel()
		}
		if h.client != nil {
			h.client.CloseIdleConnections()
		}
		if h.srv != nil {
			h.srv.Close()
		}
		for _, w := range h.workers {
			w.Close()
		}
		h.wg.Wait()
	})
}

// reply is one HTTP exchange as the caller saw it.
type reply struct {
	status  int
	body    []byte
	runID   string
	latency time.Duration
}

func (h *harness) do(method, path string, body []byte) (reply, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, body: data, runID: resp.Header.Get("X-Run-Id"), latency: time.Since(t0)}
	if err != nil {
		return r, fmt.Errorf("reading response: %w", err)
	}
	return r, nil
}

// getJSON fetches path and decodes a 200 response into v.
func (h *harness) getJSON(path string, v any) error {
	r, err := h.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, r.status, r.body)
	}
	return json.Unmarshal(r.body, v)
}

// stats is the part of GET /v1/stats the benchmark reads.
type stats struct {
	Compiles      int64 `json:"compiles"`
	WeightUpdates int64 `json:"weight_updates"`
	MemoHits      int64 `json:"memo_hits"`
	Evictions     int64 `json:"evictions"`
	Coalesced     int64 `json:"coalesced"`
	Rejected      int64 `json:"rejected"`
	Distributed   *struct {
		Failovers int64         `json:"failovers"`
		Transport dist.Snapshot `json:"transport"`
	} `json:"distributed"`
}

func (h *harness) stats() (stats, error) {
	var st stats
	err := h.getJSON("/v1/stats", &st)
	return st, err
}

// statsDelta records the /v1/stats counters that moved between a and b.
func statsDelta(l *layers, a, b stats, requests int) {
	l.set("serve.compiles", float64(b.Compiles-a.Compiles))
	l.set("serve.weight_updates", float64(b.WeightUpdates-a.WeightUpdates))
	l.set("serve.memo_hits", float64(b.MemoHits-a.MemoHits))
	l.set("serve.memo_hit_ratio", float64(b.MemoHits-a.MemoHits)/float64(requests))
	l.set("serve.evictions", float64(b.Evictions-a.Evictions))
	l.set("serve.coalesced", float64(b.Coalesced-a.Coalesced))
	l.set("serve.rejected", float64(b.Rejected-a.Rejected))
	if a.Distributed != nil && b.Distributed != nil {
		ta, tb := a.Distributed.Transport, b.Distributed.Transport
		l.set("dist.frames_per_op", float64(tb.FramesOut-ta.FramesOut)/float64(requests))
		l.set("dist.bytes_per_op", float64(tb.BytesOut-ta.BytesOut)/float64(requests))
		l.set("dist.failovers", float64(b.Distributed.Failovers-a.Distributed.Failovers))
	}
}

// traceRequest reads the server's run record for one traced request
// and splits the caller's latency over the serving phases.
func (h *harness) traceRequest(l *layers, r reply) error {
	if r.runID == "" {
		return errors.New("response carries no X-Run-Id")
	}
	var rec obs.RunRecord
	if err := h.getJSON("/v1/runs/"+r.runID, &rec); err != nil {
		return err
	}
	l.add("serve.queue_ms", rec.QueueMS)
	l.add("serve.compile_ms", rec.CompileMS)
	l.add("serve.run_ms", rec.RunMS)
	l.add("serve.verify_ms", rec.VerifyMS)
	l.add("serve.other_ms", rec.TotalMS-rec.QueueMS-rec.CompileMS-rec.RunMS-rec.VerifyMS)
	l.add("serve.http_ms", ms(r.latency)-rec.TotalMS)
	return nil
}

// traceDist reads the merged distributed trace of one traced request.
func (h *harness) traceDist(l *layers, r reply) error {
	var rt obs.RunTrace
	if err := h.getJSON("/v1/runs/"+r.runID+"/trace", &rt); err != nil {
		return err
	}
	if len(rt.Shards) == 0 {
		return errors.New("distributed trace has no shards")
	}
	var tot obs.PhaseTotals
	for _, sh := range rt.Shards {
		tot.Compute += sh.Totals.Compute
		tot.Serialize += sh.Totals.Serialize
		tot.Wait += sh.Totals.Wait
		tot.Send += sh.Totals.Send
	}
	per := float64(len(rt.Shards)) * 1e6
	l.add("dist.compute_ms", float64(tot.Compute)/per)
	l.add("dist.serialize_ms", float64(tot.Serialize)/per)
	l.add("dist.wait_ms", float64(tot.Wait)/per)
	l.add("dist.send_ms", float64(tot.Send)/per)
	l.add("dist.wait_frac", rt.WaitFrac)
	l.add("dist.skew_ratio", rt.SkewRatio)
	return nil
}

// vcReply and scReply are the parts of a run response the checks read.
type vcReply struct {
	Fingerprint string `json:"fingerprint"`
	Cover       []int  `json:"cover"`
	Weight      int64  `json:"weight"`
	Rounds      int    `json:"rounds"`
	Verified    bool   `json:"verified"`
	Cache       string `json:"cache"`
}

type scReply struct {
	vcReply
	ScheduledRounds int `json:"scheduled_rounds"`
}

// checkVCReply checks one vertex-cover response against the caller's
// copy of the instance and the weights it sent.
func checkVCReply(r reply, inst *vcInstance, w []int64) (vcReply, string, error) {
	var v vcReply
	if r.status != http.StatusOK {
		return v, "status", fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if err := json.Unmarshal(r.body, &v); err != nil {
		return v, "decode", err
	}
	if !v.Verified {
		return v, "certificate", errors.New("response not verified")
	}
	in, err := maskOf(v.Cover, inst.n)
	if err != nil {
		return v, "cover", err
	}
	if err := inst.checkCover(in, w, v.Weight); err != nil {
		return v, "cover", err
	}
	if want := inst.predictedRounds(w); v.Rounds != want {
		return v, "rounds", fmt.Errorf("%d rounds, predicted %d", v.Rounds, want)
	}
	return v, "", nil
}

func checkSCReply(r reply, ins *scInstance, w []int64) (scReply, string, error) {
	var v scReply
	if r.status != http.StatusOK {
		return v, "status", fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if err := json.Unmarshal(r.body, &v); err != nil {
		return v, "decode", err
	}
	if !v.Verified {
		return v, "certificate", errors.New("response not verified")
	}
	in, err := maskOf(v.Cover, ins.s)
	if err != nil {
		return v, "cover", err
	}
	if err := ins.checkCover(in, w, v.Weight); err != nil {
		return v, "cover", err
	}
	if want := ins.predictedRounds(w); v.Rounds != want || v.ScheduledRounds != want {
		return v, "rounds", fmt.Errorf("%d rounds (%d scheduled), predicted %d", v.Rounds, v.ScheduledRounds, want)
	}
	return v, "", nil
}
