package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"
)

// edge is an undirected edge; canonical edges have u < v.
type edge struct{ u, v int }

func canonical(u, v int) edge {
	if u > v {
		u, v = v, u
	}
	return edge{u, v}
}

// update is one element of the edge stream.
type update struct {
	e      edge
	remove bool
}

// readKind is one of the four reads of the read mix.
type readKind int

const (
	readTopVertices readKind = iota
	readTopEdges
	readVertex
	readEdge
)

// readOp is one scheduled read.
type readOp struct {
	due  time.Duration
	kind readKind
	v    int  // readVertex
	e    edge // readEdge
}

// path is the read's URL path and query.
func (r readOp) path() string {
	switch r.kind {
	case readTopVertices:
		return fmt.Sprintf("/v1/top/vertices?k=%d", topK)
	case readTopEdges:
		return fmt.Sprintf("/v1/top/edges?k=%d", topK)
	case readVertex:
		return fmt.Sprintf("/v1/vertices/%d", r.v)
	default:
		return fmt.Sprintf("/v1/edges?u=%d&v=%d", r.e.u, r.e.v)
	}
}

// readMix weights the reads: 3/8 vertex and 3/8 edge lookups, 1/8 each of
// top-k vertices and edges. A top-k read sorts every score and costs from
// ten to a hundred times a lookup, so with an even mix the median read fell
// on the edge between the two groups and moved by a third between runs.
var readMix = []readKind{
	readVertex, readVertex, readVertex, readEdge, readEdge, readEdge,
	readTopVertices, readTopEdges,
}

// topK is the k of the top-k reads.
const topK = 10

// inputs is everything one run feeds the system, made from the seed alone.
type inputs struct {
	n     int
	edges []edge // initial graph
	// writes is the open-loop stream, writeDue[i] the due time of writes[i]
	// from the start of the phase; backlog is posted in the drain phase.
	writes   []update
	writeDue []time.Duration
	backlog  []update
	reads    []readOp
	span     time.Duration // of the open-loop phase
}

// graphFamily generates the initial graph of a workload.
type graphFamily func(rng *rand.Rand) (n int, edges []edge)

// holmeKim is the paper's synthetic social-graph family as the program's
// preset "1k" parameterises it: Holme–Kim preferential attachment with k
// links per newcomer and triad closure with probability p. Every newcomer
// attaches to earlier vertices, so the graph is connected.
func holmeKim(n, k int, p float64) graphFamily {
	return func(rng *rand.Rand) (int, []edge) {
		has := make(map[edge]bool)
		adj := make([][]int, n)
		var edges []edge
		var targets []int // every endpoint once per edge: degree-biased sampling
		add := func(u, v int) {
			e := canonical(u, v)
			has[e] = true
			edges = append(edges, e)
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
			targets = append(targets, u, v)
		}
		for i := 0; i <= k; i++ {
			for j := i + 1; j <= k; j++ {
				add(i, j)
			}
		}
		for v := k + 1; v < n; v++ {
			attached, last := 0, -1
			for attached < k {
				var t int
				if last >= 0 && rng.Float64() < p {
					t = adj[last][rng.Intn(len(adj[last]))]
				} else {
					t = targets[rng.Intn(len(targets))]
				}
				if t == v || has[canonical(v, t)] {
					continue
				}
				add(v, t)
				attached++
				last = t
			}
		}
		return n, edges
	}
}

// hubGraph is a hub (vertex 0) adjacent to every other vertex plus extra
// random edges among the rest, so the diameter is 2: for almost every source
// both endpoints of a non-hub update sit at the same distance, and the dd=0
// probe skips it.
func hubGraph(n, extra int) graphFamily {
	return func(rng *rand.Rand) (int, []edge) {
		has := make(map[edge]bool)
		edges := make([]edge, 0, n-1+extra)
		for v := 1; v < n; v++ {
			edges = append(edges, edge{0, v})
		}
		for len(edges) < n-1+extra {
			u, v := 1+rng.Intn(n-1), 1+rng.Intn(n-1)
			e := canonical(u, v)
			if u == v || has[e] {
				continue
			}
			has[e] = true
			edges = append(edges, e)
		}
		return n, edges
	}
}

// genStream returns count updates on the graph, half additions of distinct
// non-adjacent pairs and half removals of distinct initial edges, in a
// seeded random order. No pair appears twice and the two halves are
// disjoint, so every update is valid in any order and under any batching,
// and the final graph does not depend on either. Vertices in avoid (the hub)
// are never an endpoint.
func genStream(rng *rand.Rand, n int, edges []edge, count int, avoid map[int]bool) ([]update, error) {
	adds, removes := (count+1)/2, count/2
	has := make(map[edge]bool, len(edges))
	var removable []edge
	for _, e := range edges {
		has[e] = true
		if !avoid[e.u] && !avoid[e.v] {
			removable = append(removable, e)
		}
	}
	if removes > len(removable) {
		return nil, fmt.Errorf("stream wants %d removals but the graph has %d removable edges", removes, len(removable))
	}
	if adds > n*(n-1)/2-len(edges) {
		return nil, fmt.Errorf("stream wants %d additions but the graph has too few free pairs", adds)
	}
	out := make([]update, 0, count)
	for _, i := range rng.Perm(len(removable))[:removes] {
		out = append(out, update{e: removable[i], remove: true})
	}
	for len(out) < count {
		u, v := rng.Intn(n), rng.Intn(n)
		e := canonical(u, v)
		if u == v || avoid[u] || avoid[v] || has[e] {
			continue
		}
		has[e] = true
		out = append(out, update{e: e})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// poisson returns the arrival times of a Poisson process of the given rate
// that fall before span.
func poisson(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

// inputSeed draws every workload's initial graph and update stream.
const inputSeed = 1

// makeInputs generates one run's inputs for w from seed.
//
// The graph and the stream are the same for every seed: how many sources an
// update affects ranges from none to all, so a graph or a stream drawn per
// seed would add that spread to every figure. The seed draws the arrival
// schedules (how many updates the open loop sends, and how they batch) and
// the reads.
func makeInputs(w *workload, seed int64, span time.Duration) (*inputs, error) {
	fixed := func(i int64) *rand.Rand { return rand.New(rand.NewSource(inputSeed*7919 + i)) }
	sub := func(i int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + i)) }
	in := &inputs{span: span}
	in.n, in.edges = w.graph(fixed(1))
	in.writeDue = poisson(sub(2), w.writeRate, span)
	var avoid map[int]bool
	if w.skipHub {
		avoid = map[int]bool{0: true}
	}
	// Long enough for any schedule: a Poisson count exceeds its mean by half
	// with negligible probability at these rates.
	size := int(1.5*w.writeRate*span.Seconds()) + 100 + w.backlog
	stream, err := genStream(fixed(3), in.n, in.edges, size, avoid)
	if err != nil {
		return nil, err
	}
	open := len(in.writeDue)
	if open+w.backlog > len(stream) {
		return nil, fmt.Errorf("schedule wants %d updates, stream has %d", open+w.backlog, len(stream))
	}
	in.writes, in.backlog = stream[:open], stream[open:open+w.backlog]
	rr := sub(4)
	for _, due := range poisson(sub(5), w.readRate, span) {
		op := readOp{due: due, kind: readMix[rr.Intn(len(readMix))]}
		op.v = rr.Intn(in.n)
		op.e = in.edges[rr.Intn(len(in.edges))]
		in.reads = append(in.reads, op)
	}
	return in, nil
}

// finalEdges applies every update of the run to the initial edge set.
func (in *inputs) finalEdges() []edge {
	set := make(map[edge]bool, len(in.edges))
	for _, e := range in.edges {
		set[e] = true
	}
	for _, s := range [][]update{in.writes, in.backlog} {
		for _, u := range s {
			set[u.e] = !u.remove
		}
	}
	out := make([]edge, 0, len(set))
	for e, ok := range set {
		if ok {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].u != out[j].u {
			return out[i].u < out[j].u
		}
		return out[i].v < out[j].v
	})
	return out
}

// writeEdgeList writes the initial graph as the program's edge-list format.
func (in *inputs) writeEdgeList(path string) error {
	var b strings.Builder
	for _, e := range in.edges {
		fmt.Fprintf(&b, "%d %d\n", e.u, e.v)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
