package main

import (
	"math/rand"
	"testing"
	"time"

	"streambc/internal/graph"
)

// The stream must apply with zero rejections in any order, touch no pair
// twice, and leave the hub alone where asked to.
func TestStreamOrderIndependent(t *testing.T) {
	families := []struct {
		name    string
		graph   graphFamily
		avoid   map[int]bool
		updates int
	}{
		{"holme-kim", holmeKim(300, 6, 0.75), nil, 400},
		{"hub", hubGraph(300, 1200), map[int]bool{0: true}, 400},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				n, edges := f.graph(rand.New(rand.NewSource(seed)))
				stream, err := genStream(rand.New(rand.NewSource(seed+100)), n, edges, f.updates, f.avoid)
				if err != nil {
					t.Fatal(err)
				}
				seen := make(map[edge]bool)
				for _, u := range stream {
					if seen[u.e] {
						t.Fatalf("seed %d: %v appears twice", seed, u.e)
					}
					seen[u.e] = true
					if f.avoid[u.e.u] || f.avoid[u.e.v] {
						t.Fatalf("seed %d: %v touches an avoided vertex", seed, u.e)
					}
				}
				perm := rand.New(rand.NewSource(seed)).Perm(len(stream))
				g := graph.New(n)
				for _, e := range edges {
					if err := g.AddEdge(e.u, e.v); err != nil {
						t.Fatal(err)
					}
				}
				for _, i := range perm {
					u := stream[i]
					upd := graph.Addition(u.e.u, u.e.v)
					if u.remove {
						upd = graph.Removal(u.e.u, u.e.v)
					}
					if err := g.Apply(upd); err != nil {
						t.Fatalf("seed %d: %v rejected: %v", seed, u, err)
					}
				}
			}
		})
	}
}

// The same seed gives the same inputs.
func TestInputsDeterministic(t *testing.T) {
	w := &workload{graph: holmeKim(200, 6, 0.75), writeRate: 30, readRate: 50, backlog: 20}
	a, err := makeInputs(w, 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(w, 7, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.writes) != len(b.writes) || len(a.reads) != len(b.reads) {
		t.Fatalf("lengths differ: %d/%d writes, %d/%d reads", len(a.writes), len(b.writes), len(a.reads), len(b.reads))
	}
	for i := range a.writes {
		if a.writes[i] != b.writes[i] || a.writeDue[i] != b.writeDue[i] {
			t.Fatalf("write %d differs", i)
		}
	}
	for i := range a.reads {
		if a.reads[i] != b.reads[i] {
			t.Fatalf("read %d differs", i)
		}
	}
}
