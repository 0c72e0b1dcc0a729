package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// topology names the process layout of a workload.
type topology int

const (
	topoSingle  topology = iota // one bcserved
	topoReplica                 // a leader bcserved and a -follow replica
	topoShard2                  // bcrouter over two bcserved -shard i/2
)

// system is one running instance of a workload's topology, however it was
// composed: the checks and the load generator speak to it over HTTP only.
type system struct {
	write  string   // base URL writes go to
	read   string   // base URL reads go to
	leader string   // replica topology: the leader (write == leader)
	shards []string // shard2 topology: the shards, in index order
	pids   []int    // processes whose CPU and memory the run accounts
	stop   func() error
}

// setupTimeout bounds one set-up; the replica's is long because a follower
// of an idle leader waits out a whole WAL long-poll (see README).
const setupTimeout = 120 * time.Second

// stopGrace is how long a daemon may take to drain and snapshot on SIGTERM.
const stopGrace = 30 * time.Second

// daemonArgs are the flags every bcserved of the benchmark shares: a WAL
// fsynced per batch, a snapshot directory (without one /readyz stays 503 on
// a primary with a WAL) and no periodic snapshots inside the measurement.
func daemonArgs(dir string) []string {
	return []string{
		"-wal-dir", filepath.Join(dir, "wal"),
		"-fsync", "batch",
		"-snapshot-dir", filepath.Join(dir, "snap"),
		"-snapshot-interval", "0",
		"-log-level", "warn",
	}
}

// startProcesses starts w's topology from the real binaries in bin, with
// fresh data directories under dir, and returns once every process answers
// /readyz with 200.
func startProcesses(w *workload, bin, dir, graphPath string) (*system, error) {
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	hc := newClient()
	defer hc.CloseIdleConnections()
	var procs []*proc
	sys := &system{}
	sys.stop = func() error {
		var errs []error
		// Stop in reverse start order: the router before its shards, the
		// follower before its leader.
		for i := len(procs) - 1; i >= 0; i-- {
			errs = append(errs, procs[i].stop(stopGrace))
		}
		return errors.Join(errs...)
	}
	start := func(name string, args ...string) (*proc, error) {
		p, err := startProc(name, filepath.Join(bin, "bcserved"), dir, args...)
		if err == nil {
			procs = append(procs, p)
			sys.pids = append(sys.pids, p.pid())
		}
		return p, err
	}
	fail := func(err error) (*system, error) {
		_ = sys.stop()
		return nil, err
	}
	serverDir := func(name string) string { return filepath.Join(dir, name) }
	switch w.topo {
	case topoSingle:
		p, err := start("primary", append(daemonArgs(serverDir("primary")),
			"-graph", graphPath, "-workers", strconv.Itoa(w.workers))...)
		if err != nil {
			return fail(err)
		}
		if err := waitReady(ctx, hc, p); err != nil {
			return fail(err)
		}
		sys.write, sys.read = p.url, p.url
	case topoReplica:
		args := append(daemonArgs(serverDir("leader")), "-graph", graphPath,
			"-workers", strconv.Itoa(w.workers), "-store-dir", filepath.Join(serverDir("leader"), "store"))
		leader, err := start("leader", args...)
		if err != nil {
			return fail(err)
		}
		// The follower bootstraps from the leader's snapshot, so it can only
		// start once the leader serves.
		if err := waitReady(ctx, hc, leader); err != nil {
			return fail(err)
		}
		follower, err := start("follower", "-follow", leader.url,
			"-workers", strconv.Itoa(w.workers),
			"-store-dir", filepath.Join(serverDir("follower"), "store"),
			"-snapshot-dir", filepath.Join(serverDir("follower"), "snap"),
			"-snapshot-interval", "0", "-log-level", "warn")
		if err != nil {
			return fail(err)
		}
		if err := waitReady(ctx, hc, follower); err != nil {
			return fail(err)
		}
		sys.write, sys.leader, sys.read = leader.url, leader.url, follower.url
	case topoShard2:
		var shards []*proc
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("shard%d", i)
			p, err := start(name, append(daemonArgs(serverDir(name)), "-graph", graphPath,
				"-workers", "1", "-shard", fmt.Sprintf("%d/2", i))...)
			if err != nil {
				return fail(err)
			}
			shards = append(shards, p)
		}
		for _, p := range shards {
			if err := waitReady(ctx, hc, p); err != nil {
				return fail(err)
			}
			sys.shards = append(sys.shards, p.url)
		}
		r, err := startProc("router", filepath.Join(bin, "bcrouter"), dir,
			"-shards", sys.shards[0]+","+sys.shards[1], "-log-level", "warn")
		if err != nil {
			return fail(err)
		}
		procs = append(procs, r)
		sys.pids = append(sys.pids, r.pid())
		if err := waitReady(ctx, hc, r); err != nil {
			return fail(err)
		}
		sys.write, sys.read = r.url, r.url
	}
	return sys, nil
}

// removeDir deletes a run directory and fails if anything is left of it.
func removeDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("run directory %s left behind", dir)
	}
	return nil
}
