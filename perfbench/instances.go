package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"anoncover"
)

// The benchmark generates every instance itself and keeps its own copy
// of it.  The program under test receives only the instance text and
// weight vectors; answers are checked against the copy kept here.

// vcInstance is a vertex-cover topology: n nodes and an edge list in
// port order.
type vcInstance struct {
	n      int
	edges  [][2]int32
	maxDeg int
}

// gridInstance returns the r×c grid.
func gridInstance(r, c int) *vcInstance {
	g := &vcInstance{n: r * c}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := int32(i*c + j)
			if j+1 < c {
				g.edges = append(g.edges, [2]int32{v, v + 1})
			}
			if i+1 < r {
				g.edges = append(g.edges, [2]int32{v, v + int32(c)})
			}
		}
	}
	g.finish()
	return g
}

// boundedDegreeInstance returns a random simple graph with n nodes, m
// edges and maximum degree at most maxDeg.
func boundedDegreeInstance(rng *rand.Rand, n, m, maxDeg int) *vcInstance {
	g := &vcInstance{n: n}
	deg := make([]int, n)
	seen := make(map[[2]int32]bool, m)
	for len(g.edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u > v {
			u, v = v, u
		}
		if u == v || deg[u] >= maxDeg || deg[v] >= maxDeg || seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		deg[u]++
		deg[v]++
		g.edges = append(g.edges, [2]int32{u, v})
	}
	g.finish()
	return g
}

func (g *vcInstance) finish() {
	deg := make([]int, g.n)
	for _, e := range g.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for _, d := range deg {
		g.maxDeg = max(g.maxDeg, d)
	}
}

// text renders the instance with weights w in the graph text format.
func (g *vcInstance) text(w []int64) []byte {
	var b bytes.Buffer
	b.Grow(16 * (g.n + len(g.edges)))
	buf := make([]byte, 0, 48)
	b.WriteString("graph " + strconv.Itoa(g.n) + "\n")
	for v, x := range w {
		buf = append(buf[:0], "node "...)
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, x, 10)
		buf = append(buf, '\n')
		b.Write(buf)
	}
	for _, e := range g.edges {
		buf = append(buf[:0], "edge "...)
		buf = strconv.AppendInt(buf, int64(e[0]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e[1]), 10)
		buf = append(buf, '\n')
		b.Write(buf)
	}
	return b.Bytes()
}

// checkCover checks a vertex cover given as a node mask against the
// instance: every edge covered, and the reported weight equal to the
// cover's weight under w.
func (g *vcInstance) checkCover(in []bool, w []int64, weight int64) error {
	if len(in) != g.n {
		return fmt.Errorf("cover mask has %d entries for %d nodes", len(in), g.n)
	}
	for i, e := range g.edges {
		if !in[e[0]] && !in[e[1]] {
			return fmt.Errorf("edge %d (%d,%d) uncovered", i, e[0], e[1])
		}
	}
	var sum int64
	for v, c := range in {
		if c {
			sum += w[v]
		}
	}
	if sum != weight {
		return fmt.Errorf("reported cover weight %d, recomputed %d", weight, sum)
	}
	return nil
}

// predictedRounds is the schedule the paper's Section 3 algorithm must
// run for this topology under weights w.
func (g *vcInstance) predictedRounds(w []int64) int {
	return anoncover.PredictedVertexCoverRounds(g.maxDeg, maxOf(w))
}

// scInstance is a set-cover instance: s subsets, u elements and the
// membership list (subset, element) in port order.
type scInstance struct {
	s, u    int
	members [][2]int32
	f, k    int
}

// randomSetCover returns an instance in which every element lies in 1
// to f subsets and every subset holds at most k elements.
func randomSetCover(rng *rand.Rand, s, u, f, k int) *scInstance {
	if s*k < u {
		panic("randomSetCover: not enough subset capacity")
	}
	ins := &scInstance{s: s, u: u}
	load := make([]int, s)
	open := make([]int, s) // subsets with spare capacity
	for i := range open {
		open[i] = i
	}
	spare := s * k
	take := func(i int) {
		load[open[i]]++
		spare--
		if load[open[i]] == k {
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
		}
	}
	var chosen []int
	for e := 0; e < u; e++ {
		want := 1 + rng.Intn(f)
		chosen = chosen[:0]
		// The first membership always lands; extras only while the
		// spare capacity exceeds what the remaining elements reserve.
		for tries := 0; len(chosen) < want && tries < 20 && (len(chosen) == 0 || spare > u-e-1); tries++ {
			j := rng.Intn(len(open))
			if slices.Contains(chosen, open[j]) {
				continue
			}
			chosen = append(chosen, open[j])
			ins.members = append(ins.members, [2]int32{int32(open[j]), int32(e)})
			take(j)
		}
	}
	freq := make([]int, u)
	for _, m := range ins.members {
		freq[m[1]]++
	}
	for _, x := range freq {
		ins.f = max(ins.f, x)
	}
	for _, x := range load {
		ins.k = max(ins.k, x)
	}
	return ins
}

func (ins *scInstance) text(w []int64) []byte {
	var b bytes.Buffer
	b.Grow(16 * (ins.s + len(ins.members)))
	b.WriteString("setcover " + strconv.Itoa(ins.s) + " " + strconv.Itoa(ins.u) + "\n")
	buf := make([]byte, 0, 48)
	for i, x := range w {
		buf = append(buf[:0], "subset "...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, x, 10)
		buf = append(buf, '\n')
		b.Write(buf)
	}
	for _, m := range ins.members {
		buf = append(buf[:0], "edge "...)
		buf = strconv.AppendInt(buf, int64(m[0]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(m[1]), 10)
		buf = append(buf, '\n')
		b.Write(buf)
	}
	return b.Bytes()
}

// checkCover checks a set cover given as a subset mask: every element
// covered, and the reported weight equal to the cover's weight under w.
func (ins *scInstance) checkCover(in []bool, w []int64, weight int64) error {
	if len(in) != ins.s {
		return fmt.Errorf("cover mask has %d entries for %d subsets", len(in), ins.s)
	}
	covered := make([]bool, ins.u)
	for _, m := range ins.members {
		if in[m[0]] {
			covered[m[1]] = true
		}
	}
	for e, c := range covered {
		if !c {
			return fmt.Errorf("element %d uncovered", e)
		}
	}
	var sum int64
	for i, c := range in {
		if c {
			sum += w[i]
		}
	}
	if sum != weight {
		return fmt.Errorf("reported cover weight %d, recomputed %d", weight, sum)
	}
	return nil
}

func (ins *scInstance) predictedRounds(w []int64) int {
	return anoncover.PredictedSetCoverRounds(ins.f, ins.k, maxOf(w))
}

// answerCheck names the first check a library answer fails: the
// duality certificate (verr, from Verify), cover validity against the
// benchmark's copy (coverErr), or the predicted round count.
func answerCheck(verr, coverErr error, rounds, want int) (string, error) {
	switch {
	case verr != nil:
		return "certificate", verr
	case coverErr != nil:
		return "cover", coverErr
	case rounds != want:
		return "rounds", fmt.Errorf("%d rounds, predicted %d", rounds, want)
	}
	return "", nil
}

// randomWeights returns n weights uniform in 1..maxW, with the first
// one pinned to maxW so that every vector has the same maximum and the
// predicted schedule does not vary between operations.
func randomWeights(rng *rand.Rand, n int, maxW int64) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1 + rng.Int63n(maxW)
	}
	if n > 0 {
		w[0] = maxW
	}
	return w
}

func maxOf(w []int64) int64 {
	var m int64
	for _, x := range w {
		m = max(m, x)
	}
	return m
}

// maskOf turns cover indices into a membership mask, rejecting indices
// out of range or repeated.
func maskOf(idx []int, n int) ([]bool, error) {
	in := make([]bool, n)
	for _, i := range idx {
		if i < 0 || i >= n || in[i] {
			return nil, fmt.Errorf("bad cover index %d", i)
		}
		in[i] = true
	}
	return in, nil
}

// weightsBody renders the JSON body of a weights-only request.
func weightsBody(w []int64) []byte {
	b := make([]byte, 0, 3*len(w)+16)
	b = append(b, `{"weights":[`...)
	for i, x := range w {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, "]}"...)
}
