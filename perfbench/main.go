// Command perfbench is the repository's end-to-end benchmark. For one
// workload and seed it generates the inputs, starts the real bcserved and
// bcrouter binaries (or, with -trace 1, composes the same topology in
// process from the program's public constructors), drives them over
// loopback HTTP from one writer and one reader connection, checks the
// served scores against a reference Brandes, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload social-rw --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and what moves them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one input set and topology of the benchmark.
type workload struct {
	name string
	why  string
	topo topology
	// workers is -workers of every bcserved except shards (one each).
	workers int
	graph   graphFamily
	skipHub bool // stream never touches vertex 0
	// writeRate and readRate are the open-loop arrival rates per second.
	writeRate, readRate float64
	backlog             int // updates posted in the drain phase
	drainParts          int // requests the backlog is split into
	setups              int // set-ups per run; setup_s is their median
	// brandesReps reference runs are timed between the drain requests,
	// each paired with the rate of the request just before it.
	brandesReps int
}

var workloads = []*workload{
	{
		name:    "social-rw",
		why:     "kernel-heavy: about half the sources are affected by each update of a 1k Holme-Kim graph, in-memory store",
		topo:    topoSingle,
		workers: 2,
		graph:   holmeKim(1000, 6, 0.75),
		// Drains run at ~80 updates/s on the reference host; writes arrive
		// at a quarter of that. At a third, the median ingest latency sat
		// where queueing starts and moved by 30% between runs.
		writeRate: 20, readRate: 50, backlog: 400, drainParts: 8,
		setups: 5, brandesReps: 16,
	},
	{
		name:    "ooc-replica",
		why:     "store- and replication-heavy: hub graph, n=5000, out-of-core store, reads on a follower; 99.6% of sources skip at dd=0",
		topo:    topoReplica,
		workers: 1,
		graph:   hubGraph(5000, 20000),
		skipHub: true,
		// Drains of 200 updates run at ~360 updates/s on the reference host,
		// but open-loop drains carry a few updates each and pay the WAL
		// fsync, store flush, view copy and the follower's replay every
		// time: at 120/s the host's two cores were nearly always busy, and
		// at 60/s the median read on the follower still moved by a quarter
		// between runs. One set-up: it takes ~35 s, most of it a fixed
		// long-poll timeout (README).
		writeRate: 40, readRate: 50, backlog: 1600, drainParts: 8,
		setups: 1, brandesReps: 4,
	},
	{
		name:      "shard2",
		why:       "router-heavy: social-rw's graph, stream and rates through bcrouter over two one-worker shards",
		topo:      topoShard2,
		workers:   1,
		graph:     holmeKim(1000, 6, 0.75),
		writeRate: 20, readRate: 50, backlog: 400, drainParts: 8,
		setups: 5, brandesReps: 16,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: social-rw, ooc-replica or shard2")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 15, "length of the open-loop phase in seconds")
		trace   = flag.Int("trace", 0, "1: run the traced in-process topology and report per-layer metrics")
		root    = flag.String("root", ".", "repository root holding the program's source")
		build   = flag.String("build", ".bench_build", "directory for binaries and run data")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload social-rw|ooc-replica|shard2, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root, *build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run builds the daemons and runs one workload once.
func run(w *workload, seed int64, span time.Duration, traced bool, root, build string) (*result, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build, err = filepath.Abs(build)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(build, "bin")
	if err := buildBinaries(root, bin); err != nil {
		return nil, err
	}
	in, err := makeInputs(w, seed, span)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(build, "runs", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	rep, err := runOnce(w, in, bin, runDir, traced)
	if rerr := removeDir(runDir); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	rep.print(w, seed, in)
	return rep.result(traced), nil
}

// report collects one run's figures.
type report struct {
	setups      []time.Duration
	writes      phaseStats // open-loop ingest
	reads       phaseStats // open-loop reads
	drain       phaseStats
	span        time.Duration // of the open-loop phase
	drainRates  []float64     // updates/s of each drain request
	speedups    []float64     // reference time x rate of the request before it
	ref         refScores
	cpu         time.Duration // system processes, open-loop and drain phases
	hwmKB       int64
	brandes     []time.Duration // reference runs
	maxRelErr   float64
	perLayer    map[string]metric // traced run only
	layerDetail []string          // traced run only: extra lines to print
}

// runOnce sets the workload up (several times, keeping the last), runs the
// two phases, checks the outcome and stops everything it started.
func runOnce(w *workload, in *inputs, bin, runDir string, traced bool) (*report, error) {
	graphPath := filepath.Join(runDir, "graph.txt")
	if err := in.writeEdgeList(graphPath); err != nil {
		return nil, err
	}
	if traced {
		return runTraced(w, in, bin, runDir, graphPath)
	}
	rep := &report{}
	sys, err := setUp(w, runDir, rep, func(dir string) (*system, error) {
		return startProcesses(w, bin, dir, graphPath)
	})
	if err != nil {
		return nil, err
	}
	obs, err := measure(w, in, sys, rep, hooks{})
	if serr := sys.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if err := rep.verify(w, in, obs); err != nil {
		return nil, err
	}
	return rep, nil
}

// setUp starts the topology w.setups times in fresh directories, timing
// each start until the system is ready, tears down all but the last start
// and returns it.
func setUp(w *workload, runDir string, rep *report, start func(dir string) (*system, error)) (*system, error) {
	for i := 0; ; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		sys, err := start(dir)
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t0))
		if i == w.setups-1 {
			return sys, nil
		}
		if err := sys.stop(); err != nil {
			return nil, err
		}
		if err := removeDir(dir); err != nil {
			return nil, err
		}
	}
}

// measure runs the open-loop and drain phases against a ready system,
// accounts its processes' CPU and memory, and fetches its end state.
func measure(w *workload, in *inputs, sys *system, rep *report, h hooks) (*observed, error) {
	ctx := context.Background()
	before, err := sumProcStats(sys.pids)
	if err != nil {
		return nil, err
	}
	rep.span = in.span
	rep.writes, rep.reads = openLoop(ctx, sys.write, sys.read, in, h)
	// The reference runs between drain requests, so each timing sits next
	// to the drain rate it is compared with: a shared host's speed drifts by
	// 20% within a minute, and a ratio of timings taken apart would carry
	// that drift.
	g := newRefGraph(in.n, in.finalEdges())
	timeRef := func(part int, rate float64) error {
		for k := 0; k < w.brandesReps; k++ {
			if ((k+1)*w.drainParts-1)/w.brandesReps != part {
				continue
			}
			if w.topo == topoReplica {
				// The follower replays the leader's record after the ack;
				// let it finish so the reference runs on a quiet host.
				if err := waitFollower(ctx, sys); err != nil {
					return err
				}
			}
			t0 := time.Now()
			rep.ref = brandes(g)
			took := time.Since(t0)
			rep.brandes = append(rep.brandes, took)
			rep.speedups = append(rep.speedups, took.Seconds()*rate)
		}
		return nil
	}
	dr, rates, err := drain(ctx, sys.write, in.backlog, w.drainParts, h, timeRef)
	if err != nil {
		return nil, err
	}
	rep.drain, rep.drainRates = dr, rates
	after, err := sumProcStats(sys.pids)
	if err != nil {
		return nil, err
	}
	rep.cpu = after.cpu - before.cpu
	rep.hwmKB = after.hwmKB
	for _, p := range rep.phases() {
		if p.failed > 0 {
			// A failed operation is a fault to report, not a figure: the
			// workloads are built so that none fails.
			return nil, fmt.Errorf("%s: %d of %d operations failed: %s",
				p.name, p.failed, p.attempted, strings.Join(p.errs, "; "))
		}
	}
	return observe(ctx, sys, w.topo)
}

// verify checks the observed end state against the reference scores
// computed on the final graph during the drain phase.
func (rep *report) verify(w *workload, in *inputs, o *observed) error {
	worst, err := check(o, in, w.topo, rep.ref)
	if err != nil {
		return fmt.Errorf("correctness: %w", err)
	}
	rep.maxRelErr = worst
	return nil
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// latencyWindows is how many windows the open-loop phase is split into for
// the median latencies (see windowedMedian).
const latencyWindows = 5

// phases lists the phases in the order they ran.
func (rep *report) phases() []phaseStats { return []phaseStats{rep.writes, rep.reads, rep.drain} }

// updates is the number of updates applied over both phases.
func (rep *report) updates() int { return rep.writes.attempted + rep.drain.attempted }

// endToEnd returns the end-to-end metrics.
func (rep *report) endToEnd() map[string]metric {
	drainUPS := quantile(rep.drainRates, 0.5)
	return map[string]metric{
		"setup_s":            {medianDur(rep.setups).Seconds(), "s"},
		"ingest_p50_ms":      {windowedMedian(rep.writes, rep.span, latencyWindows), "ms"},
		"ingest_p99_ms":      {quantile(rep.writes.latencyMS, 0.99), "ms"},
		"read_p50_ms":        {windowedMedian(rep.reads, rep.span, latencyWindows), "ms"},
		"read_p99_ms":        {quantile(rep.reads.latencyMS, 0.99), "ms"},
		"drain_ups":          {drainUPS, "updates/s"},
		"cpu_ms_per_update":  {ms(rep.cpu) / float64(rep.updates()), "ms"},
		"peak_rss_mb":        {float64(rep.hwmKB) / 1024, "MB"},
		"speedup_vs_brandes": {quantile(rep.speedups, 0.5), "x"},
	}
}

// ungated are the end-to-end metrics printed for reading but left out of
// the JSON line. On the reference host (a shared 2-core VM) the open-loop
// latencies moved by 15-40% between runs of the same code, past any bound
// the benchmark may set, and a p99 needs 1000 samples, more than a run has
// (README).
var ungated = map[string]bool{
	"ingest_p50_ms": true, "ingest_p99_ms": true,
	"read_p50_ms": true, "read_p99_ms": true,
}

// result is the JSON line: the gated end-to-end metrics, or the per-layer
// ones when traced.
func (rep *report) result(traced bool) *result {
	r := &result{Correct: true, Metrics: rep.endToEnd()}
	for name := range ungated {
		delete(r.Metrics, name)
	}
	if traced {
		r.Metrics = rep.perLayer
	}
	for _, p := range rep.phases() {
		r.Attempted += p.attempted
		r.Failed += p.failed
	}
	return r
}

// print writes the human-readable report: inputs, phases, every metric.
func (rep *report) print(w *workload, seed int64, in *inputs) {
	fmt.Printf("workload %s seed %d: n=%d m=%d, %d open-loop updates at %.0f/s, %d reads at %.0f/s, backlog %d\n",
		w.name, seed, in.n, len(in.edges), len(in.writes), w.writeRate, len(in.reads), w.readRate, len(in.backlog))
	for i, d := range rep.setups {
		fmt.Printf("setup %d: %.3f s\n", i, d.Seconds())
	}
	fmt.Printf("drain rates (updates/s):")
	for _, r := range rep.drainRates {
		fmt.Printf(" %.1f", r)
	}
	fmt.Println()
	for _, p := range rep.phases() {
		fmt.Printf("phase %-11s attempted %6d failed %d  samples %6d  generator late p50 %.3f ms max %.3f ms\n",
			p.name, p.attempted, p.failed, len(p.latencyMS), quantile(p.lateMS, 0.5), quantile(p.lateMS, 1))
		fmt.Printf("phase %-11s latency ms p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f p99 %.3f max %.3f\n", p.name,
			quantile(p.latencyMS, 0.1), quantile(p.latencyMS, 0.25), quantile(p.latencyMS, 0.5),
			quantile(p.latencyMS, 0.75), quantile(p.latencyMS, 0.9), quantile(p.latencyMS, 0.99), quantile(p.latencyMS, 1))
	}
	fmt.Printf("reference brandes %.3f s (median of %d); max relative score error %.3g (tolerance %g)\n",
		medianDur(rep.brandes).Seconds(), len(rep.brandes), rep.maxRelErr, scoreTolerance)
	printMetrics("end-to-end", rep.endToEnd())
	if rep.perLayer != nil {
		printMetrics("per-layer", rep.perLayer)
		for _, l := range rep.layerDetail {
			fmt.Println(l)
		}
	}
}

func printMetrics(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-36s %14.4f %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}
