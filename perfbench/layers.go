package main

import (
	"time"

	"streambc/internal/obs"
)

// perLayerUnits lists every per-layer metric with its unit, in the order
// of the README's table.
var perLayerUnits = []struct{ name, unit string }{
	{"incremental.affected_per_update", "sources"},
	{"incremental.skipped_per_update", "sources"},
	{"incremental.skip_ratio", "ratio"},
	{"incremental.us_per_affected_source", "us"},
	{"bdstore.probes_per_update", "count"},
	{"bdstore.loads_per_update", "count"},
	{"bdstore.saves_per_update", "count"},
	{"bdstore.flushes_per_update", "count"},
	{"bdstore.probe_us", "us"},
	{"bdstore.load_us", "us"},
	{"bdstore.save_us", "us"},
	{"bdstore.flush_ms", "ms"},
	{"bdstore.loads_per_affected_source", "ratio"},
	{"bdstore.mmap_reads_per_update", "count"},
	{"bdstore.size_mb", "MB"},
	{"engine.init_s", "s"},
	{"engine.apply_ms_per_update", "ms"},
	{"engine.batch_size", "updates"},
	{"graph.mutate_us", "us"},
	{"bc.top_vertices_us", "us"},
	{"bc.top_edges_us", "us"},
	{"server.queue_wait_ms", "ms"},
	{"server.wal_append_ms", "ms"},
	{"server.wal_fsync_ms", "ms"},
	{"server.publish_ms", "ms"},
	{"server.updates_per_drain", "updates"},
	{"server.http_overhead_ms", "ms"},
	{"server.read_handler_us", "us"},
	{"router.fanout_ms", "ms"},
	{"router.shard_apply_ms", "ms"},
	{"router.shard_skew_ms", "ms"},
	{"router.self_ms", "ms"},
	{"router.delta_terms_per_update", "count"},
	{"router.updates_per_record", "updates"},
	{"replication.bootstrap_s", "s"},
	{"replication.ready_wait_s", "s"},
	{"replication.apply_ms_per_record", "ms"},
	{"replication.lag_records_p99", "records"},
	{"replication.records_per_poll", "records"},
}

// div is a/b, or 0 when b is 0 (a layer that did no work reports 0).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sumShards adds one sample over every shard's scrape.
func sumShards(scrapes []map[string]float64, key string) float64 {
	t := 0.0
	for _, s := range scrapes {
		t += s[key]
	}
	return t
}

// metrics computes every per-layer metric. Layers a topology does not run
// report 0; the README says which workload each layer is measured on.
func (lay *layerRun) metrics(ts *tracedSys, rep *report) map[string]metric {
	v := make(map[string]float64)
	updates := float64(rep.updates())
	drains := float64(countSpans(ts.tr.spans, "client.write"))

	// incremental and engine: the engine's own counters in process; on
	// shard2 the shards' exported ones, summed.
	var skipped, affected, applySec, applyCalls float64
	if ts.eng != nil {
		skipped = float64(lay.after.eng.SourcesSkipped - lay.before.eng.SourcesSkipped)
		affected = float64(lay.after.eng.SourcesUpdated - lay.before.eng.SourcesUpdated)
		applySec = lay.after.reg["streambc_engine_apply_batch_seconds_sum"] - lay.before.reg["streambc_engine_apply_batch_seconds_sum"]
		applyCalls = lay.after.reg["streambc_engine_apply_batch_seconds_count"] - lay.before.reg["streambc_engine_apply_batch_seconds_count"]
	} else {
		d := func(k string) float64 { return sumShards(lay.after.shards, k) - sumShards(lay.before.shards, k) }
		skipped = d("streambc_sources_skipped_total")
		affected = d("streambc_sources_updated_total")
		applySec = d("streambc_engine_apply_batch_seconds_sum")
		// Both shards apply every record; a batch is one call per shard.
		applyCalls = d("streambc_engine_apply_batch_seconds_count") / float64(len(lay.after.shards))
		applySec /= float64(len(lay.after.shards))
	}
	sb, sa := lay.before.store, lay.after.store
	storeSec := float64(sa.probeNS+sa.loadNS+sa.saveNS+sa.flushNS-sb.probeNS-sb.loadNS-sb.saveNS-sb.flushNS) / 1e9
	v["incremental.affected_per_update"] = div(affected, updates)
	v["incremental.skipped_per_update"] = div(skipped, updates)
	v["incremental.skip_ratio"] = div(skipped, skipped+affected)
	// Kernel time: engine apply time less the time spent in store calls.
	v["incremental.us_per_affected_source"] = div((applySec-storeSec)*1e6, affected)
	v["engine.init_s"] = ts.initTook.Seconds()
	v["engine.apply_ms_per_update"] = div(applySec*1e3, updates)
	v["engine.batch_size"] = div(updates, applyCalls)

	// bdstore: the stores the in-process engine was handed (the leader's on
	// ooc-replica); on shard2 the stores live in the shard binaries and
	// only their exported counts are available.
	probes, loads, saves, flushes := float64(sa.probes-sb.probes), float64(sa.loads-sb.loads), float64(sa.saves-sb.saves), float64(sa.flushes-sb.flushes)
	mmapReads, sizeB := float64(sa.stats.MmapReads-sb.stats.MmapReads), float64(sa.stats.Bytes)
	if ts.eng == nil {
		d := func(k string) float64 { return sumShards(lay.after.shards, k) - sumShards(lay.before.shards, k) }
		probes, loads, saves = d("streambc_store_probes_total"), d("streambc_store_loads_total"), d("streambc_store_saves_total")
		flushes = d("streambc_store_flushes_total")
		mmapReads = d(`streambc_store_medium_reads_total{path="mmap"}`)
		sizeB = sumShards(lay.after.shards, "streambc_store_bytes")
	}
	v["bdstore.probes_per_update"] = div(probes, updates)
	v["bdstore.loads_per_update"] = div(loads, updates)
	v["bdstore.saves_per_update"] = div(saves, updates)
	v["bdstore.flushes_per_update"] = div(flushes, updates)
	v["bdstore.probe_us"] = div(float64(sa.probeNS-sb.probeNS)/1e3, float64(sa.probes-sb.probes))
	v["bdstore.load_us"] = div(float64(sa.loadNS-sb.loadNS)/1e3, float64(sa.loads-sb.loads))
	v["bdstore.save_us"] = div(float64(sa.saveNS-sb.saveNS)/1e3, float64(sa.saves-sb.saves))
	v["bdstore.flush_ms"] = div(float64(sa.flushNS-sb.flushNS)/1e6, float64(sa.flushes-sb.flushes))
	v["bdstore.loads_per_affected_source"] = div(loads, affected)
	v["bdstore.mmap_reads_per_update"] = div(mmapReads, updates)
	v["bdstore.size_mb"] = sizeB / 1e6

	v["graph.mutate_us"] = lay.graphMutateUS
	v["bc.top_vertices_us"] = lay.topVertUS
	v["bc.top_edges_us"] = lay.topEdgeUS

	// server: pipeline stage histograms for the two stages without a
	// public seam, spans for the rest.
	walAppend := meanSpanMS(ts.tr.spans, "server.wal_append")
	v["server.wal_append_ms"] = walAppend
	v["server.wal_fsync_ms"] = meanSpanMS(ts.tr.spans, "server.wal_fsync")
	if ts.eng != nil {
		durable, _ := histMean(lay.before.reg, lay.after.reg, "streambc_ingest_stage_seconds", `{stage="`+obs.StageWALDurable+`"}`)
		visible, n := histMean(lay.before.reg, lay.after.reg, "streambc_ingest_stage_seconds", `{stage="`+obs.StageVisible+`"}`)
		// Enqueue to WAL-durable covers the queue wait and the append.
		v["server.queue_wait_ms"] = durable*1e3 - walAppend
		v["server.publish_ms"] = visible * 1e3
		v["server.updates_per_drain"] = div(updates, n)
	} else {
		// The shards' logs are in the binaries: their exported histograms.
		mean := func(name string) float64 {
			return div(sumShards(lay.after.shards, name+"_sum")-sumShards(lay.before.shards, name+"_sum"),
				sumShards(lay.after.shards, name+"_count")-sumShards(lay.before.shards, name+"_count")) * 1e3
		}
		v["server.wal_append_ms"] = mean("streambc_wal_append_seconds")
		v["server.wal_fsync_ms"] = mean("streambc_wal_fsync_seconds")
		v["server.queue_wait_ms"] = routerQueueWait(ts.tr.spans, ts.applies)
		v["server.updates_per_drain"] = div(updates, drains)
	}
	v["server.http_overhead_ms"] = httpOverhead(ts.tr.spans)
	v["server.read_handler_us"] = meanSpanMS(ts.tr.spans, "server.read") * 1e3

	if ts.rt != nil {
		r := routerFigures(ts.tr.spans, ts.applies)
		v["router.fanout_ms"] = r.fanout
		v["router.shard_apply_ms"] = r.apply
		v["router.shard_skew_ms"] = r.skew
		v["router.self_ms"] = r.self
		v["router.delta_terms_per_update"] = div(r.terms, updates)
		v["router.updates_per_record"] = div(updates, r.records)
	}

	if ts.applier != nil {
		recs := float64(lay.after.applied - lay.before.applied)
		v["replication.bootstrap_s"] = ts.bootstrap.Seconds()
		v["replication.ready_wait_s"] = ts.readyWait.Seconds()
		v["replication.apply_ms_per_record"] = div(float64(lay.after.appliedNS-lay.before.appliedNS)/1e6, recs)
		v["replication.lag_records_p99"] = quantile(lay.lagSamples, 0.99)
		polls := lay.after.freg["streambc_replication_poll_seconds_count"] - lay.before.freg["streambc_replication_poll_seconds_count"]
		v["replication.records_per_poll"] = div(recs, polls)
	}

	out := make(map[string]metric, len(perLayerUnits))
	for _, m := range perLayerUnits {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

func meanSpanMS(spans []span, name string) float64 {
	var total time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	return div(ms(total), float64(n))
}

// httpOverhead is the mean of client.write minus server.write over the
// ingest requests: loopback, HTTP and JSON on both sides.
func httpOverhead(spans []span) float64 {
	client := make(map[uint64]time.Duration)
	for _, s := range spans {
		if s.Name == "client.write" {
			client[s.Trace] = s.dur()
		}
	}
	var total time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == "server.write" {
			if c, ok := client[s.Trace]; ok {
				total += c - s.dur()
				n++
			}
		}
	}
	return div(ms(total), float64(n))
}

// routerStats are the router's per-drain figures, in ms per drain.
type routerStats struct {
	fanout, apply, skew, self float64
	terms, records            float64
}

// byDrain groups the shard applies by the drain they belong to.
func byDrain(applies []shardApply) map[uint64][]shardApply {
	out := make(map[uint64][]shardApply)
	for _, a := range applies {
		out[a.trace] = append(out[a.trace], a)
	}
	return out
}

// interval is the span of a drain's fanout: first apply sent to last apply
// answered, in ns since the tracer's epoch.
func interval(as []shardApply) (first, last int64) {
	first, last = as[0].start, as[0].end
	for _, a := range as {
		first, last = min(first, a.start), max(last, a.end)
	}
	return first, last
}

func routerFigures(spans []span, applies []shardApply) routerStats {
	var r routerStats
	handler := make(map[uint64]span)
	for _, s := range spans {
		if s.Name == "server.write" {
			handler[s.Trace] = s
		}
	}
	drains := byDrain(applies)
	var fanout, skew, self, apply int64
	for trace, as := range drains {
		first, last := interval(as)
		lo, hi := as[0].end-as[0].start, as[0].end-as[0].start
		for _, a := range as {
			d := a.end - a.start
			apply += d
			r.terms += float64(a.terms)
			lo, hi = min(lo, d), max(hi, d)
		}
		r.records++
		fanout += last - first
		skew += hi - lo
		if h, ok := handler[trace]; ok {
			self += (h.End - h.Start) - (last - first)
		}
	}
	n := float64(len(drains))
	r.fanout = div(float64(fanout)/1e6, n)
	r.skew = div(float64(skew)/1e6, n)
	r.self = div(float64(self)/1e6, n)
	r.apply = div(float64(apply)/1e6, float64(len(applies)))
	return r
}

// routerQueueWait is the mean time from the router's handler receiving an
// ingest request to the first shard apply of its drain.
func routerQueueWait(spans []span, applies []shardApply) float64 {
	drains := byDrain(applies)
	var total int64
	n := 0
	for _, s := range spans {
		if as, ok := drains[s.Trace]; ok && s.Name == "server.write" {
			first, _ := interval(as)
			total += first - s.Start
			n++
		}
	}
	return div(float64(total)/1e6, float64(n))
}
