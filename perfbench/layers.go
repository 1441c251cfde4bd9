package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/logcomp"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// Repetitions of each layer measurement in the traced run; each metric is
// the median.
const (
	layerReps    = 5
	auditReps    = 21 // staged and untraced serial audits for the accounting check
	overheadSecs = 4  // seconds of alternating untraced and traced operations
	signBatch    = 64
	maxDeltas    = 12
)

// traceRun is the traced per-layer run. It measures the tracing overhead
// on the workload's own operation, then calls each layer's public
// functions on the workload's recording of target, recording a span
// around every call and a leaf span for every signature check. f is the
// workload's running fleet, or nil to start one for the coordinator
// measurements.
func traceRun(e *env, res *result, d *dataset, target *nodeData, op opFunc, f *fleet) error {
	over, err := traceOverhead(e, overheadSecs*time.Second, op, res)
	if err != nil {
		return err
	}
	res.set("trace.overhead_ratio", "ratio", over)

	l := &layerRun{e: e, res: res, d: d, nd: target}
	steps := []func() error{l.archiveRead, l.serialAudit, l.stream, l.chunk, l.snapshots, l.write, l.sign, l.counts}
	for _, step := range steps {
		if err := step(); err != nil {
			res.fail(err)
			return err
		}
	}
	if f == nil {
		if f, err = startFleet(min(e.workers, fleetInFlight)); err != nil {
			return err
		}
		defer f.stop()
	}
	if err := l.coordinator(f); err != nil {
		res.fail(err)
		return err
	}
	return nil
}

// layerRun carries one traced run's inputs.
type layerRun struct {
	e   *env
	res *result
	d   *dataset
	nd  *nodeData
}

// check counts one layer operation as attempted, failing it on err.
func (l *layerRun) check(err error) error {
	l.res.attempted++
	if err != nil {
		return fmt.Errorf("%s: %w", l.nd.id, err)
	}
	return nil
}

// timed runs fn reps times inside a span named name of a fresh trace and
// returns the median duration in ms.
func (l *layerRun) timed(name string, reps int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		var err error
		t0 := time.Now()
		l.e.rec.Stage(name, 0, l.e.rec.NewTrace(), func() { err = fn() })
		ms = append(ms, msSince(t0))
		if err := l.check(err); err != nil {
			return 0, err
		}
	}
	return median(ms), nil
}

// archiveRead measures opening the archive, reading the node's log back
// and decoding its epoch payloads.
func (l *layerRun) archiveRead() error {
	node := string(l.nd.id)
	openMs, err := l.timed("archive.open", layerReps, func() error {
		arc, err := archive.Open(l.d.arcDir)
		if err != nil {
			return err
		}
		return arc.Close()
	})
	if err != nil {
		return err
	}
	arc, err := archive.Open(l.d.arcDir)
	if err != nil {
		return err
	}
	defer arc.Close()
	n, err := arc.Epochs(node)
	if err != nil {
		return err
	}
	var stored int64
	var payloads [][]byte
	for k := 0; k < n; k++ {
		info, err := arc.EpochInfo(node, k)
		if err != nil {
			return err
		}
		stored += info.Bytes
		entries, err := arc.ReadEpoch(node, k)
		if err != nil {
			return err
		}
		payloads = append(payloads, logcomp.CompressEntries(entries))
	}
	var readMs []float64
	for i := 0; i < layerReps; i++ {
		// A fresh handle per read: nothing of the node is cached in it.
		fresh, err := archive.Open(l.d.arcDir)
		if err != nil {
			return err
		}
		var got []tevlog.Entry
		t0 := time.Now()
		l.e.rec.Stage("archive.read_log", 0, l.e.rec.NewTrace(), func() { got, err = fresh.ReadLog(node) })
		readMs = append(readMs, msSince(t0))
		fresh.Close()
		if err == nil && len(got) != len(l.nd.entries) {
			err = fmt.Errorf("ReadLog returned %d entries, recorded %d", len(got), len(l.nd.entries))
		}
		if err := l.check(err); err != nil {
			return err
		}
	}
	var payloadBytes int
	for _, p := range payloads {
		payloadBytes += len(p)
	}
	decodeMs, err := l.timed("logcomp.decode", layerReps, func() error {
		for _, p := range payloads {
			if _, err := logcomp.DecompressEntries(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	chainMs, err := l.timed("tevlog.rechain", layerReps, func() error {
		cp := append([]tevlog.Entry(nil), l.nd.entries...)
		return tevlog.Rechain(tevlog.Hash{}, cp)
	})
	if err != nil {
		return err
	}
	l.res.set("archive.open_ms", "ms", openMs)
	l.res.set("archive.read_mb_per_s", "MB/s", float64(stored)/1e6/(median(readMs)/1000))
	l.res.set("logcomp.decode_mb_per_s", "MB/s", float64(payloadBytes)/1e6/(decodeMs/1000))
	l.res.set("tevlog.chain_entries_per_s", "entries/s", float64(len(l.nd.entries))/(chainMs/1000))
	return nil
}

// serialAudit runs the serial audit pipeline stage by stage under spans —
// chain and signature verification, the syntactic check, and replay from
// boot — alternating with untraced serial-engine audits of the same
// in-memory log, and derives the vm, sig, tevlog and audit stage metrics
// and the accounting check from the spans.
func (l *layerRun) serialAudit() error {
	nd, rec := l.nd, l.e.rec
	var counted atomic.Int64
	ks := wrapKeys(sig.NewKeyStore(), l.d.keys, &counted, rec)
	plainAuditor := nd.auditor(l.d.keys)
	var stageSum, untraced, verifyMs, syntacticMs, replayShare, verifyShare, replayRate []float64
	var dispatches float64
	var verifies, verifyNs int64
	for i := 0; i < auditReps; i++ {
		// Each side starts from a collected heap, so neither pays for the
		// other's garbage.
		runtime.GC()
		t0 := time.Now()
		got, _, err := plainAuditor.Audit(audit.AuditRequest{
			Node: nd.id, NodeIdx: nd.idx, Engine: audit.EngineSerial, Entries: nd.entries, Auths: nd.auths,
		})
		untraced = append(untraced, msSince(t0))
		if err := l.check(nd.want.check(got, err)); err != nil {
			return err
		}

		runtime.GC()
		tr := rec.NewTrace()
		root := rec.Begin("audit.serial", 0, tr)
		var verr error
		rec.Stage("tevlog.verify_segment", root, tr, func() {
			verr = tevlog.VerifySegment(tevlog.Hash{}, nd.entries, nd.auths, ks)
		})
		var syn audit.SyntacticStats
		var fault *audit.FaultReport
		rec.Stage("audit.syntactic", root, tr, func() {
			syn, fault = audit.SyntacticCheck(nd.id, nd.entries, audit.SyntacticOptions{
				NodeIdx: nd.idx, Keys: ks, VerifySignatures: true,
			})
		})
		var rp *audit.Replay
		var rerr error
		rec.Stage("vm.replay", root, tr, func() {
			rp, rerr = audit.NewReplayFromImage(nd.id, nd.ref, nd.rngSeed)
			if rerr == nil {
				rp.Feed(nd.entries)
				rp.Close()
				rp.Run()
			}
		})
		rec.Finish(root)
		switch {
		case verr != nil:
			err = verr
		case fault != nil:
			err = fault
		case rerr != nil:
			err = rerr
		case rp.Fault() != nil:
			err = rp.Fault()
		case syn != nd.want.Syntactic || rp.Stats != nd.want.Replay:
			err = fmt.Errorf("staged serial audit: stats differ from the oracle's")
		}
		if err := l.check(err); err != nil {
			return err
		}

		sum := Summarize(rec.TraceSpans(tr))
		stages := sum.Dur["tevlog.verify_segment"] + sum.Dur["audit.syntactic"] + sum.Dur["vm.replay"]
		stageSum = append(stageSum, float64(stages)/1e6)
		verifyMs = append(verifyMs, float64(sum.Dur["tevlog.verify_segment"])/1e6)
		syntacticMs = append(syntacticMs, float64(sum.Self["audit.syntactic"])/1e6)
		replayShare = append(replayShare, float64(sum.Dur["vm.replay"])/float64(stages))
		sigCover := sum.Cover["tevlog.verify_segment"] + sum.Cover["audit.syntactic"]
		verifyShare = append(verifyShare, float64(sigCover)/float64(stages))
		replayRate = append(replayRate, float64(rp.Stats.Instructions)/1e6/(float64(sum.Self["vm.replay"])/1e9))
		verifies, verifyNs = int64(sum.Count["sig.verify"]), sum.Dur["sig.verify"]
		m := rp.Machine()
		dispatches = float64(m.ICount-m.FusedPairs-m.FusedQuads) / float64(m.ICount)
	}
	if n := counted.Load(); n != verifies*auditReps {
		return l.check(fmt.Errorf("verifier wrapper counted %d checks, spans %d", n, verifies*auditReps))
	}
	ratio := median(stageSum) / median(untraced)
	l.res.set("audit.stage_sum_ratio", "ratio", ratio)
	l.res.detail("audit.stage_sum", "ms", median(stageSum), fmt.Sprintf("traced stages vs %.3f ms untraced serial audit of %s", median(untraced), nd.id))
	if ratio < 0.95 || ratio > 1.05 {
		l.res.detail("audit.stage_sum_miss", "ratio", ratio, "stage times do not add up to the untraced audit within 5%")
	}
	l.res.set("vm.replay_minstr_per_s", "MInstr/s", median(replayRate))
	l.res.set("vm.dispatches_per_instr", "count", dispatches)
	l.res.set("vm.replay_share", "ratio", median(replayShare))
	l.res.set("sig.verify_count", "count", float64(verifies))
	l.res.set("sig.verifies_per_entry", "count", float64(verifies)/float64(len(nd.entries)))
	l.res.set("sig.verify_per_s", "1/s", float64(verifies)/(float64(verifyNs)/1e9))
	l.res.set("sig.verify_share", "ratio", median(verifyShare))
	l.res.set("tevlog.verify_segment_ms", "ms", median(verifyMs))
	l.res.set("audit.syntactic_ms", "ms", median(syntacticMs))
	return nil
}

// stream audits the node from the archive on the stream engine and
// reports its resident-entry high-water mark.
func (l *layerRun) stream() error {
	got, stats, err := auditArchived(l.d.arcDir, l.nd, l.d.keys, l.e.workers)
	if err := l.check(l.nd.want.check(got, err)); err != nil {
		return err
	}
	l.res.set("audit.stream_peak_resident_entries", "entries", float64(stats.PeakResidentEntries))
	return nil
}

// chunk fetches spot-check chunks from the archive through fresh
// ArchiveSources and audits each.
func (l *layerRun) chunk() error {
	arc, err := archive.Open(l.d.arcDir)
	if err != nil {
		return err
	}
	defer arc.Close()
	n, err := arc.Epochs(string(l.nd.id))
	if err != nil || n < 2 {
		return l.check(fmt.Errorf("chunk: %d epochs archived (%v)", n, err))
	}
	var reqs []audit.ChunkRequest
	i := 0
	ms, err := l.timed("archive.chunk", layerReps, func() error {
		src := &audit.ArchiveSource{Arc: arc, Node: l.nd.id, NodeIdx: l.nd.idx, Auths: l.nd.auths}
		req, err := src.Chunk(int(mix64(l.e.seed<<20^uint64(i))%uint64(n-1)), 1)
		i++
		reqs = append(reqs, req)
		return err
	})
	if err != nil {
		return err
	}
	for _, req := range reqs {
		got, _, err := l.nd.auditor(l.d.keys).Audit(audit.AuditRequest{Node: l.nd.id, NodeIdx: l.nd.idx, Engine: audit.EngineChunk, Chunk: &req})
		if err == nil && (got == nil || !got.Passed) {
			err = fmt.Errorf("chunk audit did not pass: %v", got)
		}
		if err := l.check(err); err != nil {
			return err
		}
	}
	l.res.set("archive.chunk_ms", "ms", ms)
	return nil
}

// snapshots measures materializing the last archived snapshot, verifying
// it against the log-committed root, hashing its memory, and folding each
// epoch's delta.
func (l *layerRun) snapshots() error {
	arc, err := archive.Open(l.d.arcDir)
	if err != nil {
		return err
	}
	defer arc.Close()
	node := string(l.nd.id)
	bounds, err := arc.Boundaries(node)
	if err != nil || len(bounds) == 0 {
		return l.check(fmt.Errorf("snapshots: %d boundaries (%v)", len(bounds), err))
	}
	last := bounds[len(bounds)-1]
	var st *snapshot.Restored
	matMs, err := l.timed("snapshot.materialize", layerReps, func() error {
		incs, err := arc.IncrementSource(node) // fresh: nothing decoded yet
		if err != nil {
			return err
		}
		st, err = snapshot.MaterializeFrom(incs, int(last.SnapIdx))
		return err
	})
	if err != nil {
		return err
	}
	seedMs, err := l.timed("snapshot.seed_verify", layerReps, func() error {
		var lh snapshot.LiveStateHasher
		return lh.SeedVerify(st, last.Root)
	})
	if err != nil {
		return err
	}
	rootMs, err := l.timed("merkle.root", layerReps, func() error {
		if snapshot.RootOfState(st.Mem, st.Machine, st.AuthDevice) != last.Root {
			return fmt.Errorf("state root differs from the committed root")
		}
		return nil
	})
	if err != nil {
		return err
	}
	incs, err := arc.IncrementSource(node)
	if err != nil {
		return err
	}
	var foldMs []float64
	for k := 1; k < incs.Count() && k <= maxDeltas; k++ {
		base, err := snapshot.MaterializeFrom(incs, k-1)
		if err != nil {
			return l.check(err)
		}
		delta, err := snapshot.DeltaFrom(incs, k)
		if err != nil {
			return l.check(err)
		}
		ms, err := l.timed("snapshot.apply_delta", 1, func() error {
			_, err := snapshot.ApplyDelta(base, delta)
			return err
		})
		if err != nil {
			return err
		}
		foldMs = append(foldMs, ms)
	}
	l.res.set("snapshot.materialize_ms", "ms", matMs)
	l.res.set("snapshot.seed_verify_ms", "ms", seedMs)
	l.res.set("merkle.root_mb_per_s", "MB/s", float64(len(st.Mem))/1e6/(rootMs/1000))
	if len(foldMs) == 0 {
		return l.check(fmt.Errorf("snapshots: no deltas to fold"))
	}
	l.res.set("snapshot.delta_fold_ms", "ms", median(foldMs))
	return nil
}

// write measures archiving the node's recording to a fresh archive and
// the whole recording's archived bytes per log entry.
func (l *layerRun) write() error {
	dir := filepath.Join(l.e.work, "layer-write")
	var size int64
	ms, err := l.timed("archive.write", layerReps, func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		arc, err := archive.Open(dir)
		if err != nil {
			return err
		}
		if err := arc.WriteRecording(string(l.nd.id), l.nd.entries, l.nd.snaps); err != nil {
			arc.Close()
			return err
		}
		size = arc.Bytes()
		return arc.Close()
	})
	if err != nil {
		return err
	}
	arc, err := archive.Open(l.d.arcDir)
	if err != nil {
		return err
	}
	total := arc.Bytes()
	arc.Close()
	l.res.set("archive.write_mb_per_s", "MB/s", float64(size)/1e6/(ms/1000))
	l.res.set("archive.bytes_per_entry", "B", float64(total)/float64(l.d.entries()))
	return nil
}

// sign measures RSA-1024 signing of authenticator-sized bodies with a key
// of the workload's kind.
func (l *layerRun) sign() error {
	signer, err := sig.GenerateRSA(l.nd.id, sig.DefaultKeyBits, l.d.keySeed)
	if err != nil {
		return l.check(err)
	}
	body := make([]byte, 8+tevlog.HashSize) // sequence number + chain hash
	ms, err := l.timed("sig.sign", layerReps, func() error {
		for i := 0; i < signBatch; i++ {
			body[i%len(body)]++
			if len(signer.Sign(body)) != signer.SigLen() {
				return fmt.Errorf("short signature")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.res.set("sig.sign_per_s", "1/s", signBatch/(ms/1000))
	return nil
}

// counts reports the recording's deterministic per-virtual-second counts.
func (l *layerRun) counts() error {
	l.res.set("sig.signs_per_vsec", "count", float64(l.d.signs)/l.d.vsec)
	l.res.set("avmm.entries_per_vsec", "count", float64(l.d.entries())/l.d.vsec)
	l.res.set("avmm.log_bytes_per_vsec", "B", float64(l.d.logBytes())/l.d.vsec)
	return nil
}

// coordinator audits the node through the fleet's coordinator and through
// the in-process dist engine with the same worker count, and reports the
// wire, scheduling and overhead figures.
func (l *layerRun) coordinator(f *fleet) error {
	arc, err := archive.Open(l.d.arcDir)
	if err != nil {
		return err
	}
	defer arc.Close()
	nodes, err := loadFleetNodes(&dataset{nodes: []*nodeData{l.nd}}, arc)
	if err != nil {
		return l.check(err)
	}
	fn := nodes[0]
	before := f.coord.Stats()
	var dist audit.DistStats
	var coordWall time.Duration
	coordMs, err := l.timed("audit.coordinator", layerReps, func() error {
		t0 := time.Now()
		got, ds, err := f.audit(fn, l.d.keys)
		coordWall += time.Since(t0)
		addDist(&dist, ds)
		return l.nd.want.check(got, err)
	})
	if err != nil {
		return err
	}
	after := f.coord.Stats()
	localMs, err := l.timed("audit.dist_local", layerReps, func() error {
		got, _, err := l.nd.auditor(l.d.keys).Audit(audit.AuditRequest{
			Node: l.nd.id, NodeIdx: l.nd.idx, Engine: audit.EngineDist, Entries: fn.entries, Auths: l.nd.auths,
			Options: audit.EngineOptions{Workers: f.workers, Materialize: fn.materialize},
		})
		return l.nd.want.check(got, err)
	})
	if err != nil {
		return err
	}
	epochs := float64(max(dist.Epochs, 1))
	l.res.set("wire.job_bytes_per_epoch", "B", float64(dist.WireBytesFull+dist.WireBytesDelta)/epochs)
	l.res.set("wire.delta_job_ratio", "ratio", float64(dist.DeltaJobsShipped)/epochs)
	l.res.set("audit.coord_utilization", "ratio", float64(after.BusyNs-before.BusyNs)/(float64(coordWall.Nanoseconds())*float64(f.workers)))
	l.res.set("audit.coord_retries", "count", float64(after.Retries-before.Retries))
	l.res.set("audit.coord_hedges", "count", float64(after.Hedges-before.Hedges))
	l.res.set("audit.dist_overhead_ratio", "ratio", coordMs/localMs)
	return nil
}

// addDist accumulates the counters of one distributed audit.
func addDist(dst *audit.DistStats, s audit.DistStats) {
	dst.Epochs += s.Epochs
	dst.Redispatches += s.Redispatches
	dst.WireBytesFull += s.WireBytesFull
	dst.WireBytesDelta += s.WireBytesDelta
	dst.DeltaJobsShipped += s.DeltaJobsShipped
	dst.DeltaFallbacks += s.DeltaFallbacks
}
