package main

// Reference Brandes, kept apart from the program's internal/bc on purpose:
// the benchmark checks served scores against it, and times it for
// speedup_vs_brandes, so a change to the program can neither break the check
// nor move the yardstick.
//
// The scores follow the paper's Definitions 2.1 and 2.2 for an undirected
// graph: sums over ordered pairs (s, t), s != t, without normalisation, so
// every unordered pair counts twice. Edge scores are keyed by the canonical
// pair (min, max).

// refGraph is an undirected simple graph as sorted adjacency lists.
type refGraph struct {
	adj [][]int32
}

// newRefGraph builds a graph on n vertices from an edge list.
func newRefGraph(n int, edges []edge) *refGraph {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.u]++
		deg[e.v]++
	}
	g := &refGraph{adj: make([][]int32, n)}
	for v := range g.adj {
		g.adj[v] = make([]int32, 0, deg[v])
	}
	for _, e := range edges {
		g.adj[e.u] = append(g.adj[e.u], int32(e.v))
		g.adj[e.v] = append(g.adj[e.v], int32(e.u))
	}
	return g
}

// refScores are the vertex and edge betweenness of a refGraph.
type refScores struct {
	vbc []float64
	ebc map[edge]float64
}

// brandes computes vertex and edge betweenness with one BFS and one
// dependency accumulation per source.
func brandes(g *refGraph) refScores {
	n := len(g.adj)
	// Edge scores accumulate in a flat array indexed by adjacency slot; the
	// two slots of an edge are summed into the canonical key at the end.
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + len(g.adj[v])
	}
	slot := make([]float64, off[n])
	vbc := make([]float64, n)
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	order := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		for v := range dist {
			dist[v] = -1
			sigma[v] = 0
			delta[v] = 0
		}
		dist[s], sigma[s] = 0, 1
		order = append(order[:0], int32(s))
		for i := 0; i < len(order); i++ {
			v := order[i]
			for _, w := range g.adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					order = append(order, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
				}
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			for j, v := range g.adj[w] {
				if dist[v] == dist[w]-1 {
					c := sigma[v] / sigma[w] * (1 + delta[w])
					delta[v] += c
					slot[off[w]+j] += c
				}
			}
			vbc[w] += delta[w]
		}
	}
	ebc := make(map[edge]float64, off[n]/2)
	for v := 0; v < n; v++ {
		for j, w := range g.adj[v] {
			ebc[canonical(v, int(w))] += slot[off[v]+j]
		}
	}
	return refScores{vbc: vbc, ebc: ebc}
}
