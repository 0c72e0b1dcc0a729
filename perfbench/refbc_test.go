package main

import (
	"math"
	"testing"
)

// Hand-computed scores over ordered pairs, without normalisation.
func TestBrandesHandComputed(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []edge
		vbc   []float64
		ebc   map[edge]float64
	}{
		{
			// 0-1-2: only the pairs (0,2) and (2,0) pass through 1. Each edge
			// carries its own endpoints' two pairs plus the two long ones.
			name: "path", n: 3,
			edges: []edge{{0, 1}, {1, 2}},
			vbc:   []float64{0, 2, 0},
			ebc:   map[edge]float64{{0, 1}: 4, {1, 2}: 4},
		},
		{
			// Star with centre 0 and leaves 1..3: the centre is on all 3*2
			// ordered leaf pairs; a spoke carries its 2 centre pairs and the 4
			// ordered pairs between its leaf and the other two leaves.
			name: "star", n: 4,
			edges: []edge{{0, 1}, {0, 2}, {0, 3}},
			vbc:   []float64{6, 0, 0, 0},
			ebc:   map[edge]float64{{0, 1}: 6, {0, 2}: 6, {0, 3}: 6},
		},
		{
			// 4-cycle 0-1-2-3: opposite vertices have two shortest paths, so
			// each middle vertex gets 1/2 from each of the 2 ordered pairs; an
			// edge carries its 2 endpoint pairs plus half of 4 opposite pairs.
			name: "4-cycle", n: 4,
			edges: []edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}},
			vbc:   []float64{1, 1, 1, 1},
			ebc:   map[edge]float64{{0, 1}: 4, {1, 2}: 4, {2, 3}: 4, {0, 3}: 4},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := brandes(newRefGraph(c.n, c.edges))
			for v, want := range c.vbc {
				if math.Abs(got.vbc[v]-want) > 1e-12 {
					t.Errorf("vertex %d: got %v, want %v", v, got.vbc[v], want)
				}
			}
			if len(got.ebc) != len(c.ebc) {
				t.Errorf("got %d edge scores, want %d", len(got.ebc), len(c.ebc))
			}
			for e, want := range c.ebc {
				if math.Abs(got.ebc[e]-want) > 1e-12 {
					t.Errorf("edge %v: got %v, want %v", e, got.ebc[e], want)
				}
			}
		})
	}
}
