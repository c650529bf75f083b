package main

import (
	"fmt"
	"time"

	"anoncover/internal/sim"
)

// skelProg is the trivial fixed-lane program behind
// sim.skeleton_ns_per_node_round: every round it sends one 3-word lane
// per port, the shape of an edgepack Phase I offer, and sums what it
// receives.  Its run time is the engine's delivery cost with almost no
// node-program compute on top.
type skelProg struct {
	deg int
	out []sim.Message
	acc uint64
}

func (p *skelProg) Init(sim.Env) {}

func (p *skelProg) Send(r int) []sim.Message {
	for i := range p.out {
		p.out[i] = uint64(r)
	}
	return p.out
}

func (p *skelProg) Recv(r int, msgs []sim.Message) {
	for _, m := range msgs {
		p.acc += m.(uint64)
	}
}

func (p *skelProg) Output() any       { return p.acc }
func (p *skelProg) WireWords(int) int { return 3 }

func (p *skelProg) SendWire(r int, out []uint64) (int64, int64, bool) {
	for q := 0; q < p.deg; q++ {
		out[3*q] = uint64(r)<<3 | 1
		out[3*q+1] = uint64(r)
		out[3*q+2] = 1
	}
	return int64(p.deg), 3 * int64(p.deg), true
}

func (p *skelProg) RecvWire(r int, in []uint64) {
	for q := 0; q < p.deg; q++ {
		p.acc += in[3*q+1]
	}
}

// skeleton times the trivial program on top for the given round count
// and returns the median nanoseconds per node-round over reps runs.
func skeleton(top sim.Topology, rounds int, opt sim.Options, reps int) (float64, error) {
	n := top.N()
	var samples []float64
	for i := 0; i < reps; i++ {
		progs := make([]sim.PortProgram, n)
		for v := range progs {
			progs[v] = &skelProg{deg: top.Deg(v), out: make([]sim.Message, top.Deg(v))}
		}
		t0 := time.Now()
		st, err := sim.RunPort(top, progs, rounds, opt)
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("skeleton run: %w", err)
		}
		if st.Rounds != rounds {
			return 0, fmt.Errorf("skeleton run: %d rounds, want %d", st.Rounds, rounds)
		}
		samples = append(samples, float64(d.Nanoseconds())/float64(n*rounds))
	}
	return median(samples), nil
}
