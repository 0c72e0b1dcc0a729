package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"streambc/internal/bc"
	"streambc/internal/bdstore"
	"streambc/internal/engine"
	"streambc/internal/graph"
	"streambc/internal/obs"
	"streambc/internal/replication"
	"streambc/internal/router"
	"streambc/internal/server"
)

type bcState = bc.SourceState

// tracedSys is the traced run's topology: the system the load generator
// and the checks see, plus handles on the in-process parts.
type tracedSys struct {
	*system
	tr        *tracer
	reg       *obs.Registry // the (leader's or router's) registry
	eng       *engine.Engine
	leaderWAL *server.WAL
	rt        *router.Router
	store     *storeCounters
	initTook  time.Duration // engine.New, or the shards' start to ready

	// replica topology
	applier   *timedApplier
	tailer    *replication.Tailer
	freg      *obs.Registry
	bootstrap time.Duration
	readyWait time.Duration

	// shard2 topology
	applies []shardApply
}

// serveHTTP serves h on a fresh loopback port until the returned stop runs.
func serveHTTP(h http.Handler) (url string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(l)
	}()
	return "http://" + l.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-done
	}, nil
}

// waitURLReady polls url/readyz until it answers 200.
func waitURLReady(ctx context.Context, url string) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	for {
		if _, err := getBody(ctx, hc, url+"/readyz"); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", url, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// openPrimary composes one writable server the way bcserved does: engine
// from the edge list, WAL fsynced per batch, snapshot directory without
// periodic snapshots, HTTP on loopback.
func openPrimary(tr *tracer, dir, graphPath string, cfg engine.Config, reg *obs.Registry) (*engine.Engine, *server.WAL, *server.Server, time.Duration, error) {
	g, err := graph.LoadEdgeListFile(graphPath, false)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	cfg.Obs = reg
	t0 := time.Now()
	eng, err := engine.New(g, cfg)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	took := time.Since(t0)
	wal, err := server.OpenWAL(server.WALConfig{Dir: filepath.Join(dir, "wal"), SegmentBytes: 64 << 20, Mode: server.FsyncPerBatch}, eng.WALOffset())
	if err != nil {
		eng.Close()
		return nil, nil, nil, 0, err
	}
	srv := server.New(eng, server.Config{
		SnapshotDir: filepath.Join(dir, "snap"),
		WAL:         wal,
		MaxQueue:    65536,
		MaxBatch:    256,
		ReadyMaxLag: 1024,
		Obs:         reg,
	})
	// server.New installs its own WAL observers; these replace them so the
	// appends and fsyncs become spans.
	wal.SetObservers(latencyObs{tr, "server.wal_append"}, latencyObs{tr, "server.wal_fsync"})
	srv.Start()
	return eng, wal, srv, took, nil
}

// startTraced composes w's topology in process from the program's public
// constructors (shards stay real binaries) and returns once it is ready.
func startTraced(w *workload, tr *tracer, bin, dir, graphPath string) (*tracedSys, error) {
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	ts := &tracedSys{system: &system{pids: []int{os.Getpid()}}, tr: tr, reg: obs.NewRegistry(),
		store: &storeCounters{t: tr}}
	var stops []func() error
	ts.stop = func() error {
		var errs []error
		for i := len(stops) - 1; i >= 0; i-- {
			errs = append(errs, stops[i]())
		}
		return errors.Join(errs...)
	}
	fail := func(err error) (*tracedSys, error) {
		_ = ts.stop()
		return nil, err
	}
	serve := func(h http.Handler) (string, error) {
		url, stop, err := serveHTTP(tr.wrapHandler(h))
		if err == nil {
			stops = append(stops, func() error { stop(); return nil })
		}
		return url, err
	}
	primary := func(name string, storeFactory engine.StoreFactory) (string, error) {
		cfg := engine.Config{Workers: w.workers, Store: ts.store.factory(storeFactory)}
		eng, wal, srv, took, err := openPrimary(tr, filepath.Join(dir, name), graphPath, cfg, ts.reg)
		if err != nil {
			return "", err
		}
		ts.eng, ts.leaderWAL, ts.initTook = eng, wal, took
		stops = append(stops, func() error { return errors.Join(srv.Close(), eng.Close()) })
		return serve(srv.Handler())
	}
	switch w.topo {
	case topoSingle:
		url, err := primary("primary", engine.MemFactory())
		if err != nil {
			return fail(err)
		}
		ts.write, ts.read = url, url
	case topoReplica:
		leaderURL, err := primary("leader", engine.DiskFactoryOpts(filepath.Join(dir, "leader", "store"), bdstore.Options{}))
		if err != nil {
			return fail(err)
		}
		if err := waitURLReady(ctx, leaderURL); err != nil {
			return fail(err)
		}
		// Follower, as bcserved -follow composes it.
		fdir := filepath.Join(dir, "follower")
		fcfg := engine.Config{Workers: w.workers, Store: engine.DiskFactoryOpts(filepath.Join(fdir, "store"), bdstore.Options{})}
		client := replication.NewClient(leaderURL)
		t0 := time.Now()
		feng, err := replication.Bootstrap(ctx, client, filepath.Join(fdir, "snap"), fcfg)
		if err != nil {
			return fail(err)
		}
		ts.bootstrap = time.Since(t0)
		ts.freg = obs.NewRegistry()
		fsrv := server.New(feng, server.Config{
			SnapshotDir: filepath.Join(fdir, "snap"),
			Replica:     true,
			LeaderURL:   leaderURL,
			ReadyMaxLag: 1024,
			Obs:         ts.freg,
		})
		ts.applier = &timedApplier{srv: fsrv, t: tr, traces: &sync.Map{}}
		ts.tailer = replication.NewTailer(client, ts.applier, replication.TailerConfig{
			Rebootstrap: func(st *engine.SnapshotState) error {
				return fsrv.SwapEngine(func() (*engine.Engine, error) { return engine.RestoreEngine(st, fcfg) })
			},
			Obs: ts.freg,
		})
		fsrv.SetReplicationStats(ts.tailer.Stats)
		fsrv.Start()
		tailCtx, cancelTail := context.WithCancel(context.Background())
		tailDone := make(chan error, 1)
		t1 := time.Now()
		go func() { tailDone <- ts.tailer.Run(tailCtx) }()
		stops = append(stops, func() error {
			cancelTail()
			return errors.Join(<-tailDone, fsrv.Close(), feng.Close())
		})
		furl, err := serve(fsrv.Handler())
		if err != nil {
			return fail(err)
		}
		if err := waitURLReady(ctx, furl); err != nil {
			return fail(err)
		}
		ts.readyWait = time.Since(t1)
		ts.write, ts.leader, ts.read = leaderURL, leaderURL, furl
		wal := ts.leaderWAL
		tr.onWrite = func(root spanCtx) { ts.applier.traces.Store(wal.Seq(), root) }
	case topoShard2:
		t0 := time.Now()
		var conns []router.ShardConn
		var mu sync.Mutex
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("shard%d", i)
			p, err := startProc(name, filepath.Join(bin, "bcserved"), dir, append(daemonArgs(filepath.Join(dir, name)),
				"-graph", graphPath, "-workers", "1", "-shard", fmt.Sprintf("%d/2", i))...)
			if err != nil {
				return fail(err)
			}
			stops = append(stops, func() error { return p.stop(stopGrace) })
			ts.pids = append(ts.pids, p.pid())
			hc := newClient()
			err = waitReady(ctx, hc, p)
			hc.CloseIdleConnections()
			if err != nil {
				return fail(err)
			}
			ts.shards = append(ts.shards, p.url)
			conns = append(conns, &timedShard{ShardConn: router.NewHTTPShard(p.url), idx: i, t: tr, mu: &mu, applies: &ts.applies})
		}
		ts.initTook = time.Since(t0)
		rt, err := router.New(ctx, router.Config{Shards: conns, Obs: ts.reg})
		if err != nil {
			return fail(err)
		}
		rt.Start()
		ts.rt = rt
		stops = append(stops, rt.Close)
		url, err := serve(rt.Handler())
		if err != nil {
			return fail(err)
		}
		ts.write, ts.read = url, url
	}
	return ts, nil
}

// runTraced is the traced run: the same inputs, schedules and
// configuration as the untraced one, on the in-process topology.
func runTraced(w *workload, in *inputs, bin, runDir, graphPath string) (*report, error) {
	rep := &report{}
	var ts *tracedSys
	_, err := setUp(w, runDir, rep, func(dir string) (*system, error) {
		s, err := startTraced(w, newTracer(), bin, dir, graphPath)
		if err != nil {
			return nil, err
		}
		ts = s
		return s.system, nil
	})
	if err != nil {
		return nil, err
	}
	lay, err := measureTraced(w, in, ts, rep)
	if serr := ts.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if err := rep.verify(w, in, lay.obs); err != nil {
		return nil, err
	}
	lay.graphMutateUS, err = timeGraphMutations(in)
	if err != nil {
		return nil, err
	}
	rep.perLayer = lay.metrics(ts, rep)
	rep.layerDetail = selfTimes(ts.tr.spans)
	out := filepath.Join(filepath.Dir(filepath.Dir(runDir)), "traces")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(out, w.name+".json")
	rep.layerDetail = append(rep.layerDetail, "spans written to "+path)
	return rep, ts.tr.writeSpans(path)
}

// layerSnap is every layer's counters at one instant between phases.
type layerSnap struct {
	reg       map[string]float64   // the leader's or the router's registry
	freg      map[string]float64   // the follower's registry
	shards    []map[string]float64 // each shard's /metrics
	eng       engine.Stats
	store     storeSnap
	applied   int64 // records the follower applied
	appliedNS int64 // and the time it took
}

// snapLayers reads every layer's counters (the system must be idle).
func snapLayers(ctx context.Context, ts *tracedSys) (layerSnap, error) {
	var s layerSnap
	var err error
	if s.reg, err = scrapeRegistry(ts.reg); err != nil {
		return s, err
	}
	if ts.freg != nil {
		if s.freg, err = scrapeRegistry(ts.freg); err != nil {
			return s, err
		}
		s.applied, s.appliedNS = ts.applier.n.Load(), ts.applier.ns.Load()
	}
	if len(ts.shards) > 0 {
		if s.shards, err = scrapeShards(ctx, ts.shards); err != nil {
			return s, err
		}
	}
	if ts.eng != nil {
		s.eng = ts.eng.Stats()
	}
	s.store = ts.store.snap()
	return s, nil
}

// layerRun holds what the traced run measured around the phases.
type layerRun struct {
	obs                  *observed
	before, after        layerSnap
	lagSamples           []float64
	topVertUS, topEdgeUS float64
	graphMutateUS        float64
}

// scrapeShards fetches every shard's /metrics.
func scrapeShards(ctx context.Context, urls []string) ([]map[string]float64, error) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	var out []map[string]float64
	for _, u := range urls {
		b, err := getBody(ctx, hc, u+"/metrics")
		if err != nil {
			return nil, err
		}
		m, err := scrapeText(b)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// measureTraced runs the phases with tracing hooks and snapshots every
// layer's counters on both sides of them.
func measureTraced(w *workload, in *inputs, ts *tracedSys, rep *report) (*layerRun, error) {
	ctx := context.Background()
	lay := &layerRun{}
	var err error
	if lay.before, err = snapLayers(ctx, ts); err != nil {
		return nil, err
	}
	// Sample the follower's lag while the phases run.
	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		if ts.tailer == nil {
			return
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-tick.C:
				lay.lagSamples = append(lay.lagSamples, float64(ts.tailer.Stats().LagRecords))
			}
		}
	}()
	lay.obs, err = measure(w, in, ts.system, rep, ts.tr.hooks())
	close(stopLag)
	<-lagDone
	if err != nil {
		return nil, err
	}
	if lay.after, err = snapLayers(ctx, ts); err != nil {
		return nil, err
	}
	// Direct calls into bc on the final scores, with the read mix's k.
	var res *bc.Result
	if ts.rt != nil {
		res, _ = ts.rt.Result()
	} else {
		res = ts.eng.ResultSnapshot()
	}
	root := ts.tr.newCtx(nil)
	lay.topVertUS = timeCalls(ts.tr, &root, "bc.top_vertices", func() { bc.TopVertices(res, topK) })
	lay.topEdgeUS = timeCalls(ts.tr, &root, "bc.top_edges", func() { bc.TopEdges(res, topK) })
	return lay, nil
}

// timeCalls times fn over a fixed number of calls, each one a span, and
// returns the mean in microseconds.
func timeCalls(tr *tracer, root *spanCtx, name string, fn func()) float64 {
	const calls = 200
	var total time.Duration
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		fn()
		end := time.Now()
		total += end.Sub(t0)
		tr.child(root, name, t0, end, nil)
	}
	return float64(total) / float64(time.Microsecond) / calls
}

// timeGraphMutations applies the run's stream to the initial graph through
// graph.Graph.Apply, the mutation the engine performs per update, and
// returns the mean time per call in microseconds.
func timeGraphMutations(in *inputs) (float64, error) {
	g := graph.New(in.n)
	for _, e := range in.edges {
		if err := g.AddEdge(e.u, e.v); err != nil {
			return 0, err
		}
	}
	var total time.Duration
	n := 0
	for _, s := range [][]update{in.writes, in.backlog} {
		for _, u := range s {
			upd := graph.Addition(u.e.u, u.e.v)
			if u.remove {
				upd = graph.Removal(u.e.u, u.e.v)
			}
			t0 := time.Now()
			err := g.Apply(upd)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
			n++
		}
	}
	return float64(total) / float64(time.Microsecond) / float64(n), nil
}
