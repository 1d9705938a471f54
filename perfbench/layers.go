package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"orchestra/client"
)

// perLayer lists the traced run's metrics in report order, each with its
// unit. Every traced run reports all of them; a layer the workload does
// not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"plan.us", "us"},
	{"engine.scan_index_us", "us"},
	{"engine.index_entries_per_query", "count"},
	{"engine.scan_pass_us", "us"},
	{"engine.rows_examined_per_result_row", "ratio"},
	{"engine.pagecache_hit_ratio", "ratio"},
	{"engine.pagecache_evictions_per_query", "count"},
	{"engine.ship_encode_us", "us"},
	{"engine.ship_decode_us", "us"},
	{"engine.ship_bytes_per_result_row", "bytes"},
	{"engine.final_us", "us"},
	{"engine.fragment_us_max", "us"},
	{"engine.fragment_skew", "ratio"},
	{"engine.unattributed_us", "us"},
	{"server.stream_write_us", "us"},
	{"server.first_batch_us_p50", "us"},
	{"server.admission_wait_us", "us"},
	{"server.publish_service_us", "us"},
	{"client.residual_us_p50", "us"},
	{"client.publish_residual_us", "us"},
	{"client.retries", "count"},
	{"vstore.page_build_us", "us"},
	{"vstore.pages_written_per_publish", "count"},
	{"kvstore.commit_us", "us"},
	{"kvstore.records_per_publish", "count"},
	{"wal.fsyncs_per_publish", "count"},
	{"wal.fsync_mean_us", "us"},
	{"wal.records_per_fsync", "count"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.checkpoint_stall_us", "us"},
	{"cluster.publish_unattributed_us", "us"},
	{"trace.overhead_share", "ratio"},
}

// statusSet is one status snapshot per node, in node order.
type statusSet []*client.Status

func takeStatus(ctx context.Context, d *deployment) (statusSet, error) {
	out := make(statusSet, len(d.nodes))
	for i, addr := range d.addrs() {
		cl, err := client.Dial(addr, client.Options{PoolSize: 1, RefreshInterval: -1})
		if err != nil {
			return nil, err
		}
		st, err := cl.Status(ctx)
		cl.Close()
		if err != nil {
			return nil, fmt.Errorf("status %s: %w", addr, err)
		}
		out[i] = st
	}
	return out, nil
}

// spanFold accumulates the server span trees of traced queries.
type spanFold struct {
	queries   int
	fragments int
	// Per-query sums (µs).
	plan, shipDecode, final, streamWrite, fragMax, skew, unattributed, root float64
	// Per-fragment sums (µs).
	scanIndex, scanPass, shipEncode float64
	// Counts.
	indexEntries, passRows, resultRows, shipBytes, hits, misses int64
	skewQueries                                                 int
	residualsUs                                                 []float64
}

// add folds one query's span tree; clientDur is the latency the client
// saw and resultRows the rows it received.
func (f *spanFold) add(root *client.TraceSpan, clientDur time.Duration, resultRows int) {
	f.queries++
	f.root += float64(root.DurUs)
	f.resultRows += int64(resultRows)
	f.residualsUs = append(f.residualsUs, float64(clientDur.Microseconds()-root.DurUs))

	var frags []*client.TraceSpan
	var local *client.TraceSpan // the initiator's own fragment
	var blocking [][2]int64     // initiator-clock intervals of blocking stages
	var walk func(s *client.TraceSpan)
	walk = func(s *client.TraceSpan) {
		for _, c := range s.Children {
			switch c.Name {
			case "plan":
				f.plan += float64(c.DurUs)
				blocking = append(blocking, [2]int64{c.StartUs, c.StartUs + c.DurUs})
			case "final":
				f.final += float64(c.DurUs)
				blocking = append(blocking, [2]int64{c.StartUs, c.StartUs + c.DurUs})
			case "stream.write":
				f.streamWrite += float64(c.DurUs)
				blocking = append(blocking, [2]int64{c.StartUs, c.StartUs + c.DurUs})
			case "ship.decode":
				f.shipDecode += float64(c.DurUs)
			case "fragment":
				frags = append(frags, c)
				if c.Node == root.Node && local == nil {
					local = c
				}
				f.hits += c.CacheHits
				f.misses += c.CacheMisses
				f.foldFragment(c)
				continue // fragment children are folded above
			}
			walk(c)
		}
	}
	walk(root)

	if len(frags) > 0 {
		lo, hi := frags[0].DurUs, frags[0].DurUs
		for _, fr := range frags[1:] {
			lo, hi = min(lo, fr.DurUs), max(hi, fr.DurUs)
		}
		f.fragMax += float64(hi)
		if lo > 0 {
			f.skew += float64(hi) / float64(lo)
			f.skewQueries++
		}
		// Remote fragments report their own clocks; they start with the
		// initiator's fragment, so the fragment stage spans from there
		// to the slowest fragment's end.
		start := int64(0)
		if local != nil {
			start = local.StartUs
		}
		blocking = append(blocking, [2]int64{start, start + hi})
	}
	f.unattributed += float64(root.DurUs - coverage(blocking, root.DurUs))
}

func (f *spanFold) foldFragment(fr *client.TraceSpan) {
	f.fragments++
	var walk func(s *client.TraceSpan)
	walk = func(s *client.TraceSpan) {
		for _, c := range s.Children {
			switch c.Name {
			case "scan.index":
				f.scanIndex += float64(c.DurUs)
				f.indexEntries += c.Rows
			case "scan.pass":
				f.scanPass += float64(c.DurUs)
				f.passRows += c.Rows
			case "ship.encode":
				f.shipEncode += float64(c.DurUs)
				f.shipBytes += c.Bytes
			}
			walk(c)
		}
	}
	walk(fr)
}

// coverage is the length of the union of intervals, clipped to [0, end].
func coverage(iv [][2]int64, end int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		lo, hi := max(x[0], 0), min(x[1], end)
		if hi <= lo {
			continue
		}
		if open && lo <= curHi {
			curHi = max(curHi, hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = lo, hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statusDelta sums the nodes' status counter deltas over the traced
// intervals.
type statusDelta struct {
	evictions, qCount, qTotalUs, pubCount, pubTotalUs float64
	seq, fsyncs, fsyncUs, groupRecs, stall            float64
	durableNodes                                      int
	last                                              statusSet // newest snapshot, for lifetime figures
}

// add folds the change from before to after (one snapshot per node).
func (sd *statusDelta) add(before, after statusSet) {
	sd.last = after
	sd.durableNodes = 0
	for i, a := range after {
		b := before[i]
		sd.evictions += float64(a.Caches["pages"].Evictions - b.Caches["pages"].Evictions)
		qa, qb := a.Ops["query"], b.Ops["query"]
		sd.qCount += float64(qa.Count - qb.Count)
		sd.qTotalUs += float64(qa.TotalUs - qb.TotalUs)
		pa, pb := a.Ops["publish"], b.Ops["publish"]
		sd.pubCount += float64(pa.Count - pb.Count)
		sd.pubTotalUs += float64(pa.TotalUs - pb.TotalUs)
		if a.Durability == nil || b.Durability == nil {
			continue
		}
		da, db := a.Durability, b.Durability
		sd.durableNodes++
		sd.seq += float64(da.Seq - db.Seq)
		sd.fsyncs += float64(da.Fsyncs - db.Fsyncs)
		// Fsync time from the lifetime means: mean × count is the total.
		sd.fsyncUs += float64(da.FsyncMeanUs)*float64(da.Fsyncs) - float64(db.FsyncMeanUs)*float64(db.Fsyncs)
		sd.groupRecs += float64(da.GroupCommitRecords - db.GroupCommitRecords)
		sd.stall += float64(da.CheckpointStallTotalUs - db.CheckpointStallTotalUs)
	}
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	untraced, traced *phase
	status           statusDelta
	replay           replayStats
}

// layerMetrics computes every per-layer metric of a traced run.
func layerMetrics(in layerInputs) map[string]float64 {
	var f spanFold
	var pubLat []float64
	for _, s := range in.traced.samples {
		if s.trace != nil {
			f.add(s.trace, s.dur, s.rows)
		}
		if s.class == classPublish {
			pubLat = append(pubLat, float64(s.dur.Microseconds()))
		}
	}
	q, fr := float64(f.queries), float64(f.fragments)
	out := map[string]float64{
		"plan.us":                             div(f.plan, q),
		"engine.scan_index_us":                div(f.scanIndex, fr),
		"engine.index_entries_per_query":      div(float64(f.indexEntries), q),
		"engine.scan_pass_us":                 div(f.scanPass, fr),
		"engine.rows_examined_per_result_row": div(float64(f.passRows), float64(f.resultRows)),
		"engine.pagecache_hit_ratio":          div(float64(f.hits), float64(f.hits+f.misses)),
		"engine.ship_encode_us":               div(f.shipEncode, fr),
		"engine.ship_decode_us":               div(f.shipDecode, q),
		"engine.ship_bytes_per_result_row":    div(float64(f.shipBytes), float64(f.resultRows)),
		"engine.final_us":                     div(f.final, q),
		"engine.fragment_us_max":              div(f.fragMax, q),
		"engine.fragment_skew":                div(f.skew, float64(f.skewQueries)),
		"engine.unattributed_us":              div(f.unattributed, q),
		"server.stream_write_us":              div(f.streamWrite, q),
		"client.residual_us_p50":              median(f.residualsUs),
		"client.retries":                      float64(in.untraced.retries + in.traced.retries),
		"trace.overhead_share":                1 - div(opsPerSec(in.traced), opsPerSec(in.untraced)),
		"vstore.page_build_us":                in.replay.pageBuildUs,
		"vstore.pages_written_per_publish":    in.replay.pagesPerPublish,
		"kvstore.commit_us":                   in.replay.commitUs,
	}

	sd := in.status
	var firstBatch, streamNodes float64
	for _, a := range sd.last {
		if a.Streams != nil && a.Streams.Queries > 0 {
			firstBatch += float64(a.Streams.FirstBatchP50Us)
			streamNodes++
		}
	}
	pubCount, durable := sd.pubCount, float64(sd.durableNodes)
	pubService := div(sd.pubTotalUs, pubCount)
	out["engine.pagecache_evictions_per_query"] = div(sd.evictions, q)
	out["server.first_batch_us_p50"] = div(firstBatch, streamNodes)
	out["server.admission_wait_us"] = div(sd.qTotalUs, sd.qCount) - div(f.root, q)
	out["server.publish_service_us"] = pubService
	if pubCount > 0 {
		out["client.publish_residual_us"] = div(sum(pubLat), float64(len(pubLat))) - pubService
		out["cluster.publish_unattributed_us"] = pubService - in.replay.pageBuildUs - in.replay.commitUs
	}
	out["kvstore.records_per_publish"] = div(sd.seq, durable*pubCount)
	out["wal.fsyncs_per_publish"] = div(sd.fsyncs, durable*pubCount)
	out["wal.fsync_mean_us"] = div(sd.fsyncUs, sd.fsyncs)
	out["wal.records_per_fsync"] = div(sd.groupRecs, sd.fsyncs)
	out["wal.bytes_per_user_byte"] = in.replay.walPerUserByte
	out["wal.checkpoint_stall_us"] = sd.stall
	return out
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}
