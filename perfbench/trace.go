package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streambc/internal/engine"
	"streambc/internal/incremental"
	"streambc/internal/obs"
	"streambc/internal/router"
	"streambc/internal/server"
)

// The traced run records spans from the benchmark's own files, around the
// calls it makes into each layer and at the seams the program's public API
// offers; it adds no tracing inside the program.

// span is one recorded interval. Spans of one ingest request (one drain)
// or one read share a trace id.
type span struct {
	Trace  uint64             `json:"trace"`
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the tracer's epoch
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanCtx identifies a span to its children.
type spanCtx struct{ trace, id uint64 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span

	// write is the ingest request in flight (the generator sends one at a
	// time), so spans recorded at seams on the write path join its trace;
	// handler is the in-process server's span of that request.
	write   atomic.Pointer[spanCtx]
	handler atomic.Pointer[spanCtx]
	read    atomic.Pointer[spanCtx]
	// onWrite runs when an ingest request is sent (the replica topology
	// notes the log sequence the request will be written under).
	onWrite func(root spanCtx)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newCtx(parent *spanCtx) spanCtx {
	id := t.ids.Add(1)
	if parent == nil {
		return spanCtx{trace: id, id: id}
	}
	return spanCtx{trace: parent.trace, id: id}
}

// record stores a finished span.
func (t *tracer) record(c spanCtx, parent uint64, name string, start, end time.Time, attrs map[string]float64) {
	s := span{Trace: c.trace, ID: c.id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Attrs: attrs}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child records a span under p (a root of its own when p is nil).
func (t *tracer) child(p *spanCtx, name string, start, end time.Time, attrs map[string]float64) {
	c := t.newCtx(p)
	var parent uint64
	if p != nil {
		parent = p.id
	}
	t.record(c, parent, name, start, end, attrs)
}

// hooks are the load generator's callbacks: one root span per request.
func (t *tracer) hooks() hooks {
	return hooks{
		write: func(n int) func(error) {
			c := t.newCtx(nil)
			t.write.Store(&c)
			if t.onWrite != nil {
				t.onWrite(c)
			}
			start := time.Now()
			return func(err error) {
				t.write.Store(nil)
				t.record(c, 0, "client.write", start, time.Now(), map[string]float64{"updates": float64(n)})
			}
		},
		read: func() func(error) {
			c := t.newCtx(nil)
			t.read.Store(&c)
			start := time.Now()
			return func(error) {
				t.read.Store(nil)
				t.record(c, 0, "client.read", start, time.Now(), nil)
			}
		},
	}
}

// wrapHandler records the in-process server's span of every request the
// generator sends (server.write for ingest, server.read for reads).
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		root, name := t.read.Load(), "server.read"
		if r.Method == http.MethodPost {
			root, name = t.write.Load(), "server.write"
		}
		// Only the generator's requests: a follower's WAL polls reach the
		// leader while reads are in flight.
		p := r.URL.Path
		generated := p == "/v1/updates" || p == "/v1/edges" ||
			strings.HasPrefix(p, "/v1/top/") || strings.HasPrefix(p, "/v1/vertices/")
		if root == nil || !generated {
			h.ServeHTTP(w, r)
			return
		}
		c := t.newCtx(root)
		if name == "server.write" {
			t.handler.Store(&c)
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		if name == "server.write" {
			t.handler.Store(nil)
		}
		t.record(c, root.id, name, start, time.Now(), nil)
	})
}

// writeParent is the span a write-path seam records under: the server's
// handler span when the server runs in process, else the client's.
func (t *tracer) writeParent() *spanCtx {
	if h := t.handler.Load(); h != nil {
		return h
	}
	return t.write.Load()
}

// latencyObs turns a WAL latency observation (seconds, observed when the
// call returns) into a span on the write path.
type latencyObs struct {
	t    *tracer
	name string
}

func (o latencyObs) Observe(sec float64) {
	end := time.Now()
	o.t.child(o.t.writeParent(), o.name, end.Add(-time.Duration(sec*float64(time.Second))), end, nil)
}

// storeCounters tally the calls one process's engine makes into its
// stores. Single store calls are too many to keep as spans (a dd=0 probe
// takes well under a microsecond), so they are counted and timed in sum;
// flushes, one per batch, are also spans.
type storeCounters struct {
	probes, loads, saves, flushes    atomic.Int64
	probeNS, loadNS, saveNS, flushNS atomic.Int64
	t                                *tracer

	mu     sync.Mutex
	stores []incremental.Store
}

// timedStore wraps a store handed to the engine through engine.Config.Store.
type timedStore struct {
	incremental.Store
	c *storeCounters
}

func (s *timedStore) LoadDistances(src int, dist *[]int32) error {
	t0 := time.Now()
	err := s.Store.LoadDistances(src, dist)
	s.c.probeNS.Add(int64(time.Since(t0)))
	s.c.probes.Add(1)
	return err
}

func (s *timedStore) Load(src int, rec *bcState) error {
	t0 := time.Now()
	err := s.Store.Load(src, rec)
	s.c.loadNS.Add(int64(time.Since(t0)))
	s.c.loads.Add(1)
	return err
}

func (s *timedStore) Save(src int, rec *bcState) error {
	t0 := time.Now()
	err := s.Store.Save(src, rec)
	s.c.saveNS.Add(int64(time.Since(t0)))
	s.c.saves.Add(1)
	return err
}

func (s *timedStore) Flush() error {
	t0 := time.Now()
	err := s.Store.Flush()
	end := time.Now()
	s.c.flushNS.Add(int64(end.Sub(t0)))
	s.c.flushes.Add(1)
	s.c.t.child(s.c.t.writeParent(), "bdstore.flush", t0, end, nil)
	return err
}

// SetFlushObserver keeps the engine's flush histogram working through the
// wrapper.
func (s *timedStore) SetFlushObserver(fn func(seconds float64)) {
	if fo, ok := s.Store.(interface{ SetFlushObserver(func(float64)) }); ok {
		fo.SetFlushObserver(fn)
	}
}

// factory wraps inner so every store it builds is counted by c.
func (c *storeCounters) factory(inner engine.StoreFactory) engine.StoreFactory {
	return func(id, n int, sources []int) (incremental.Store, error) {
		st, err := inner(id, n, sources)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.stores = append(c.stores, st)
		c.mu.Unlock()
		return &timedStore{Store: st, c: c}, nil
	}
}

// storeStats sums Stats over the stores (call it between batches).
func (c *storeCounters) storeStats() incremental.StoreStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum incremental.StoreStats
	for _, s := range c.stores {
		st := s.Stats()
		sum.Bytes += st.Bytes
		sum.MmapReads += st.MmapReads
		sum.PreadReads += st.PreadReads
	}
	return sum
}

// storeSnap is a point-in-time copy of the counters.
type storeSnap struct {
	probes, loads, saves, flushes    int64
	probeNS, loadNS, saveNS, flushNS int64
	stats                            incremental.StoreStats
}

func (c *storeCounters) snap() storeSnap {
	return storeSnap{
		probes: c.probes.Load(), loads: c.loads.Load(), saves: c.saves.Load(), flushes: c.flushes.Load(),
		probeNS: c.probeNS.Load(), loadNS: c.loadNS.Load(), saveNS: c.saveNS.Load(), flushNS: c.flushNS.Load(),
		stats: c.storeStats(),
	}
}

// timedShard wraps a router.ShardConn: every fanout Apply becomes a span
// under the router's handler span.
type timedShard struct {
	router.ShardConn
	idx     int
	t       *tracer
	mu      *sync.Mutex
	applies *[]shardApply
}

// shardApply is one shard's apply of one drain's record.
type shardApply struct {
	trace      uint64 // the drain's
	start, end int64  // ns since the tracer's epoch
	terms      int    // delta terms in the shard's answer
}

func (s *timedShard) Apply(ctx context.Context, rec server.WALRecord) (*server.ShardResponse, error) {
	start := time.Now()
	resp, err := s.ShardConn.Apply(ctx, rec)
	end := time.Now()
	a := shardApply{start: int64(start.Sub(s.t.t0)), end: int64(end.Sub(s.t.t0))}
	if resp != nil {
		for _, u := range resp.Updates {
			a.terms += len(u.VBC) + len(u.EBC)
		}
	}
	p := s.t.writeParent()
	if p != nil {
		a.trace = p.trace
	}
	s.t.child(p, "router.shard_apply", start, end, map[string]float64{"shard": float64(s.idx)})
	s.mu.Lock()
	*s.applies = append(*s.applies, a)
	s.mu.Unlock()
	return resp, err
}

// timedApplier wraps the follower's replication.Applier: every replicated
// record becomes a span in the trace of the ingest request that wrote it.
type timedApplier struct {
	srv *server.Server
	t   *tracer
	// traces maps a leader log sequence to the request written under it.
	traces *sync.Map
	n      atomic.Int64
	ns     atomic.Int64
}

func (a *timedApplier) ApplyReplicated(rec server.WALRecord) error {
	start := time.Now()
	err := a.srv.ApplyReplicated(rec)
	end := time.Now()
	a.n.Add(1)
	a.ns.Add(int64(end.Sub(start)))
	var p *spanCtx
	if v, ok := a.traces.Load(rec.Seq); ok {
		c := v.(spanCtx)
		p = &c
	}
	a.t.child(p, "replication.apply", start, end, map[string]float64{"updates": float64(len(rec.Updates))})
	return err
}

func (a *timedApplier) AppliedWALSeq() uint64 { return a.srv.AppliedWALSeq() }

// scrape renders a registry (or parses a scraped exposition) into a map
// from sample name plus labels to value.
func scrapeText(text []byte) (map[string]float64, error) {
	fams, err := obs.ParseExposition(text)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			v, err := strconv.ParseFloat(s.Value, 64)
			if err != nil {
				return nil, err
			}
			out[s.Name+s.Labels] += v
		}
	}
	return out, nil
}

func scrapeRegistry(reg *obs.Registry) (map[string]float64, error) {
	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		return nil, err
	}
	return scrapeText(b.Bytes())
}

// histMean is the mean of a histogram or summary over the interval between
// two scrapes (0 when nothing was observed).
func histMean(before, after map[string]float64, name, labels string) (mean, count float64) {
	count = after[name+"_count"+labels] - before[name+"_count"+labels]
	if count <= 0 {
		return 0, 0
	}
	return (after[name+"_sum"+labels] - before[name+"_sum"+labels]) / count, count
}

// selfTimes reports, per span name, the count, mean duration and mean self
// time: a span's duration minus the part of it its children cover.
func selfTimes(spans []span) []string {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		n         int
		dur, self time.Duration
	}
	by := make(map[string]*agg)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.dur += s.dur()
		a.self += s.dur() - covered(s, children[s.ID])
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		a := by[n]
		out = append(out, fmt.Sprintf("span %-22s count %6d  mean %10.3f ms  self %10.3f ms",
			n, a.n, ms(a.dur)/float64(a.n), ms(a.self)/float64(a.n)))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return time.Duration(total)
}

// writeSpans saves the spans as JSON.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
