package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"
)

// scoreTolerance is the relative tolerance of served scores against the
// reference: the incremental kernel reaches the same sums by a different
// order of floating-point additions, so the last bits may differ.
const scoreTolerance = 1e-9

// stats is the part of /v1/stats the checks read (bcserved and bcrouter
// share the field names they have in common).
type stats struct {
	UpdatesApplied  int64  `json:"updates_applied"`
	UpdatesRejected int64  `json:"updates_rejected"`
	SourcesSkipped  int64  `json:"sources_skipped"`
	SourcesUpdated  int64  `json:"sources_updated"`
	SampledSources  int64  `json:"sampled_sources"`
	WALSequence     uint64 `json:"wal_sequence"`
	ReplApplied     uint64 `json:"replication_applied_sequence"`
	MergedSequence  uint64 `json:"merged_sequence"`
}

// served is a full score set as one server answers it.
type served struct {
	n, m int
	vbc  map[int]float64
	ebc  map[edge]float64
}

func fetchScores(ctx context.Context, hc *http.Client, url string) (*served, error) {
	var g struct{ N, M int }
	if err := getJSON(ctx, hc, url+"/v1/graph", &g); err != nil {
		return nil, err
	}
	var tv struct {
		Vertices []struct {
			Vertex int
			Score  float64
		}
	}
	if err := getJSON(ctx, hc, fmt.Sprintf("%s/v1/top/vertices?k=%d", url, g.N), &tv); err != nil {
		return nil, err
	}
	var te struct {
		Edges []struct {
			U, V  int
			Score float64
		}
	}
	if err := getJSON(ctx, hc, fmt.Sprintf("%s/v1/top/edges?k=%d", url, g.M), &te); err != nil {
		return nil, err
	}
	s := &served{n: g.N, m: g.M, vbc: make(map[int]float64, g.N), ebc: make(map[edge]float64, g.M)}
	for _, v := range tv.Vertices {
		s.vbc[v.Vertex] = v.Score
	}
	for _, e := range te.Edges {
		s.ebc[canonical(e.U, e.V)] = e.Score
	}
	if len(s.vbc) != g.N || len(s.ebc) != g.M {
		return nil, fmt.Errorf("%s served %d vertex and %d edge scores for n=%d m=%d",
			url, len(s.vbc), len(s.ebc), g.N, g.M)
	}
	return s, nil
}

// observed is everything the checks need from a live system, fetched before
// it is stopped so the reference can be computed and timed on a quiet host.
type observed struct {
	writeStats  stats
	shardStats  []stats
	shardSeqs   []uint64
	scores      *served // from the read URL
	leaderScore *served // replica topology: the leader's, at the same sequence
}

// waitFollower returns once the follower has applied every record the
// leader has written: it applies the leader's log asynchronously.
func waitFollower(ctx context.Context, sys *system) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var l, f stats
		if err := getJSON(ctx, hc, sys.leader+"/v1/stats", &l); err != nil {
			return err
		}
		if err := getJSON(ctx, hc, sys.read+"/v1/stats", &f); err != nil {
			return err
		}
		if f.ReplApplied == l.WALSequence {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at sequence %d, leader at %d after 60s", f.ReplApplied, l.WALSequence)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// observe fetches the final state of sys once every update has been acked.
func observe(ctx context.Context, sys *system, topo topology) (*observed, error) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	o := &observed{}
	if err := getJSON(ctx, hc, sys.write+"/v1/stats", &o.writeStats); err != nil {
		return nil, err
	}
	switch topo {
	case topoReplica:
		if err := waitFollower(ctx, sys); err != nil {
			return nil, err
		}
		var err error
		if o.leaderScore, err = fetchScores(ctx, hc, sys.leader); err != nil {
			return nil, err
		}
	case topoShard2:
		for _, u := range sys.shards {
			var st stats
			if err := getJSON(ctx, hc, u+"/v1/stats", &st); err != nil {
				return nil, err
			}
			var ss struct {
				AppliedSeq uint64 `json:"applied_sequence"`
			}
			if err := getJSON(ctx, hc, u+"/v1/shard/status", &ss); err != nil {
				return nil, err
			}
			o.shardStats = append(o.shardStats, st)
			o.shardSeqs = append(o.shardSeqs, ss.AppliedSeq)
		}
	}
	var err error
	if o.scores, err = fetchScores(ctx, hc, sys.read); err != nil {
		return nil, err
	}
	return o, nil
}

// check verifies the observed end state against the run's inputs and the
// reference scores, and returns the largest relative score error seen.
func check(o *observed, in *inputs, topo topology, ref refScores) (float64, error) {
	want := int64(len(in.writes) + len(in.backlog))
	ws := o.writeStats
	if ws.UpdatesRejected != 0 {
		return 0, fmt.Errorf("%d updates rejected, want 0", ws.UpdatesRejected)
	}
	if ws.UpdatesApplied != want {
		return 0, fmt.Errorf("%d updates applied, want %d", ws.UpdatesApplied, want)
	}
	// Kernel accounting: every applied update either skips or updates each
	// source the process owns. A shard owns the vertices of its stride of
	// the source pool (its /v1/stats reports the size of the whole pool).
	type account struct {
		st      stats
		sources int64
	}
	accounts := []account{{ws, ws.SampledSources}}
	if topo == topoShard2 {
		accounts = nil
		for i, st := range o.shardStats {
			if o.shardSeqs[i] != ws.MergedSequence {
				return 0, fmt.Errorf("shard %d applied sequence %d, router merged %d",
					i, o.shardSeqs[i], ws.MergedSequence)
			}
			k := len(o.shardStats)
			accounts = append(accounts, account{st, int64((in.n - i + k - 1) / k)})
		}
	}
	for i, a := range accounts {
		st := a.st
		if got, want := st.SourcesSkipped+st.SourcesUpdated, a.sources*st.UpdatesApplied; got != want {
			return 0, fmt.Errorf("accounting of process %d: skipped %d + updated %d != sources %d x updates %d",
				i, st.SourcesSkipped, st.SourcesUpdated, a.sources, st.UpdatesApplied)
		}
	}
	if topo == topoReplica {
		if err := bitIdentical(o.leaderScore, o.scores); err != nil {
			return 0, fmt.Errorf("follower differs from leader: %w", err)
		}
	}
	s := o.scores
	if s.n != len(ref.vbc) || s.m != len(ref.ebc) {
		return 0, fmt.Errorf("served n=%d m=%d, reference n=%d m=%d", s.n, s.m, len(ref.vbc), len(ref.ebc))
	}
	worst := 0.0
	cmp := func(what string, got, want float64) error {
		d := math.Abs(got-want) / math.Max(1, math.Abs(want))
		worst = math.Max(worst, d)
		if !(d <= scoreTolerance) {
			return fmt.Errorf("%s: served %v, reference %v", what, got, want)
		}
		return nil
	}
	for v, want := range ref.vbc {
		got, ok := s.vbc[v]
		if !ok {
			return 0, fmt.Errorf("vertex %d not served", v)
		}
		if err := cmp(fmt.Sprintf("vertex %d", v), got, want); err != nil {
			return 0, err
		}
	}
	for e, want := range ref.ebc {
		got, ok := s.ebc[e]
		if !ok {
			return 0, fmt.Errorf("edge %v not served", e)
		}
		if err := cmp(fmt.Sprintf("edge %v", e), got, want); err != nil {
			return 0, err
		}
	}
	return worst, nil
}

// bitIdentical compares two score sets bit for bit.
func bitIdentical(a, b *served) error {
	if a.n != b.n || a.m != b.m {
		return fmt.Errorf("n=%d m=%d against n=%d m=%d", a.n, a.m, b.n, b.m)
	}
	for v, x := range a.vbc {
		if y, ok := b.vbc[v]; !ok || math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Errorf("vertex %d: %v against %v", v, x, y)
		}
	}
	for e, x := range a.ebc {
		if y, ok := b.ebc[e]; !ok || math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Errorf("edge %v: %v against %v", e, x, y)
		}
	}
	return nil
}
