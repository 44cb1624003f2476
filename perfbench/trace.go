package main

// The traced pass times each layer's public functions in-process, on the
// run's generated inputs and against the snapshot or manifest the server
// used. Every request or write gets an id; each layer call is a span whose
// parent is the call that would have caused it. The pass re-executes the
// inner call on the same input rather than instrumenting the program, so
// a layer's self time is its span minus its child spans (selfTimes).
// Counters that only the server sees (cache, allocations, shared scans)
// come from its /stats and /debug/vars over the end-to-end window.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"phrasemine"
	"phrasemine/internal/core"
	"phrasemine/internal/corpus"
	"phrasemine/internal/diskio"
	"phrasemine/internal/livetail"
	"phrasemine/internal/server"
	"phrasemine/internal/textproc"
	"phrasemine/internal/topk"
)

// Traced-pass sizes: enough calls for stable medians, few enough that a
// traced run stays well inside its time limit.
const (
	traceReads        = 2000 // /mine requests replayed on the monolithic engine
	traceShardedReads = 300  // requests replayed on the sharded engine
	traceBatches      = 200  // /mine/batch compositions replayed
	openReps          = 5    // repetitions of the open calls
	// writeIDBase separates write and pending-query ids from read ids.
	writeIDBase = 1 << 20
)

// layerSet collects the per-layer metrics in report order.
type layerSet struct{ ms []metric }

func (l *layerSet) add(name, unit string, v float64, note string) {
	l.ms = append(l.ms, metric{Name: name, Unit: unit, Value: v, Note: note})
}

// p50 is the median of a layer's samples, noting their count.
func (l *layerSet) p50(name, unit string, xs []float64) {
	l.add(name, unit, percentile(append([]float64(nil), xs...), 50), fmt.Sprintf("p50 of %d calls", len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func coreQuery(req Request) corpus.Query {
	op := corpus.OpOR
	if req.Op == "AND" {
		op = corpus.OpAND
	}
	return corpus.NewQuery(op, phrasemine.NormalizeKeywords(req.Keywords)...)
}

// usesNRA mirrors AlgoAuto: fraction 0.2 selects SMJ, 1.0 NRA.
func usesNRA(req Request) bool { return req.Fraction >= 0.5 }

func runTraced(r *runner, o *outcome) ([]metric, error) {
	t := newTracer()
	l := &layerSet{}
	base := r.file("base.snap")
	if _, err := os.Stat(base); err != nil {
		return nil, err
	}
	if _, err := os.Stat(r.file("manifest")); err != nil {
		// Monolithic workloads serve no manifest; build the one the
		// sharded engine's layer calls are timed on.
		if err := r.buildIndex(true); err != nil {
			return nil, err
		}
	}
	if err := traceReadPath(r, t, l, base); err != nil {
		return nil, err
	}
	if err := traceShardedPath(r, t, l); err != nil {
		return nil, err
	}
	if err := traceWritePath(r, t, l, base); err != nil {
		return nil, err
	}
	if err := traceBuild(r, l, base); err != nil {
		return nil, err
	}
	serverCounterMetrics(l, o)
	if err := writeSpans(r, t); err != nil {
		return nil, err
	}
	return orderLayers(l.ms)
}

// traceReadPath replays the first traceReads requests of the /mine stream
// through server -> phrasemine -> core -> corpus, then the batches, then
// measures the tracing overhead on the server calls.
func traceReadPath(r *runner, t *tracer, l *layerSet, base string) error {
	in := r.in
	m, err := phrasemine.OpenMinerMapped(base, 0)
	if err != nil {
		return err
	}
	defer m.Close()
	h := server.New(m, server.Options{CacheSize: -1})
	ix, err := core.OpenSnapshotFile(base, 0)
	if err != nil {
		return err
	}
	defer ix.Close()
	smj, err := ix.BuildSMJ(fractions[0])
	if err != nil {
		return err
	}
	st := newStream(in.Seed, len(in.Pool))
	ids := make([]int, traceReads)
	for i := range ids {
		ids[i] = st.next()
	}
	bodies, err := marshalAll(in.Pool)
	if err != nil {
		return err
	}
	serve := func(idx int) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/mine", bytes.NewReader(bodies[idx])))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("traced /mine request %d: status %d: %s", idx, rec.Code, rec.Body.String())
		}
		return nil
	}
	// Warm the same lazy structures the end-to-end set-up warms.
	for _, idx := range ids {
		if err := serve(idx); err != nil {
			return err
		}
	}

	var (
		docsSel                            []float64
		nraRead, nraFrac, nraCand, nraStop []float64
		smjRead, smjCand                   []float64
	)
	for id, idx := range ids {
		req := in.Pool[idx]
		q := coreQuery(req)
		var err error
		srv := t.begin("server", -1, id)
		err = serve(idx)
		t.end(srv)
		if err != nil {
			return err
		}
		name := "phrasemine.mine_smj"
		if usesNRA(req) {
			name = "phrasemine.mine_nra"
		}
		var mined []phrasemine.Result
		pm := t.timed(name, srv, id, func() { mined, err = mineRef(m, req, phrasemine.AlgoAuto) })
		if err != nil {
			return err
		}
		var res []topk.Result
		if usesNRA(req) {
			var s topk.NRAStats
			t.timed("core.query_nra", pm, id, func() {
				res, s, err = ix.QueryNRA(q, topk.NRAOptions{K: req.K, Fraction: req.Fraction})
			})
			read := 0
			for _, n := range s.EntriesRead {
				read += n
			}
			nraRead = append(nraRead, float64(read))
			nraFrac = append(nraFrac, s.FractionTraversed)
			nraCand = append(nraCand, float64(s.MaxCandidates))
			stopped := 0.0
			if s.StoppedEarly {
				stopped = 1
			}
			nraStop = append(nraStop, stopped)
		} else {
			var s topk.SMJStats
			t.timed("core.query_smj", pm, id, func() {
				res, s, err = ix.QuerySMJ(smj, q, topk.SMJOptions{K: req.K})
			})
			smjRead = append(smjRead, float64(s.EntriesRead))
			smjCand = append(smjCand, float64(s.Candidates))
		}
		if err != nil {
			return err
		}
		var resolved []core.MinedPhrase
		rs := t.timed("core.resolve", pm, id, func() { resolved, err = ix.Resolve(res, q) })
		if err != nil {
			return err
		}
		var n int
		t.timed("corpus.select", rs, id, func() { n, err = ix.Inverted.SelectCount(q) })
		if err != nil {
			return err
		}
		docsSel = append(docsSel, float64(n))
		if !sameResolved(resolved, mined) {
			return fmt.Errorf("traced request %d: core answer differs from Miner.MineDetailed", idx)
		}
	}

	var batchPerItem []float64
	for bi := 0; bi < min(traceBatches, len(in.Batches)); bi++ {
		items := make([]phrasemine.BatchItem, len(in.Batches[bi]))
		for i, q := range in.Batches[bi] {
			items[i] = phrasemine.BatchItem{Keywords: q.Keywords, Op: parseOp(q.Op),
				Options: phrasemine.QueryOptions{K: q.K, ListFraction: q.Fraction}}
		}
		var out []phrasemine.BatchResult
		i := t.timed("phrasemine.batch", -1, writeIDBase/2+bi, func() { out = m.MineBatch(items) })
		for _, br := range out {
			if br.Err != nil {
				return fmt.Errorf("traced batch %d: %w", bi, br.Err)
			}
		}
		batchPerItem = append(batchPerItem, float64(t.spans[i].dur().Nanoseconds())/1e3/float64(len(items)))
	}

	overhead, err := tracingOverhead(ids, serve)
	if err != nil {
		return err
	}

	durs, self := layerTimes(t.spans, false), layerTimes(t.spans, true)
	l.p50("server.self_us", "us", self["server"])
	l.p50("phrasemine.mine_nra_us", "us", durs["phrasemine.mine_nra"])
	l.p50("phrasemine.mine_smj_us", "us", durs["phrasemine.mine_smj"])
	l.p50("phrasemine.self_us", "us", append(append([]float64(nil), self["phrasemine.mine_nra"]...), self["phrasemine.mine_smj"]...))
	l.p50("phrasemine.batch_us_per_item", "us", batchPerItem)
	l.p50("core.query_nra_us", "us", durs["core.query_nra"])
	l.p50("core.query_smj_us", "us", durs["core.query_smj"])
	l.p50("core.resolve_us", "us", durs["core.resolve"])
	l.p50("corpus.select_us", "us", durs["corpus.select"])
	l.add("corpus.docs_selected", "count", mean(docsSel), fmt.Sprintf("mean |D'| over %d requests", len(docsSel)))
	l.add("topk.nra_entries_read", "count", mean(nraRead), fmt.Sprintf("mean over %d NRA requests", len(nraRead)))
	l.add("topk.nra_fraction_traversed", "ratio", mean(nraFrac), "mean over lists and NRA requests")
	l.add("topk.nra_max_candidates", "count", mean(nraCand), "mean peak candidate set")
	l.add("topk.nra_stopped_early_ratio", "ratio", mean(nraStop), "share of NRA requests stopped by the threshold test")
	l.add("topk.smj_entries_read", "count", mean(smjRead), fmt.Sprintf("mean over %d SMJ requests", len(smjRead)))
	l.add("topk.smj_candidates", "count", mean(smjCand), "mean scored phrases")
	l.add("trace.overhead_pct", "%", overhead, "traced minus untraced server replay, share of untraced")
	return nil
}

func sameResolved(got []core.MinedPhrase, want []phrasemine.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Phrase != want[i].Phrase || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}

// tracingOverhead replays the server calls with and without span
// recording, alternating, and returns the traced excess in percent.
func tracingOverhead(ids []int, serve func(int) error) (float64, error) {
	var plain, traced []float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for _, idx := range ids {
			if err := serve(idx); err != nil {
				return 0, err
			}
		}
		plain = append(plain, time.Since(start).Seconds())
		tt := newTracer()
		start = time.Now()
		for id, idx := range ids {
			i := tt.begin("server", -1, id)
			err := serve(idx)
			tt.end(i)
			if err != nil {
				return 0, err
			}
		}
		traced = append(traced, time.Since(start).Seconds())
	}
	return 100 * (median(traced) - median(plain)) / median(plain), nil
}

// traceShardedPath times the sharded engine's list algorithms on the
// manifest, then one 32-write cycle's flush.
func traceShardedPath(r *runner, t *tracer, l *layerSet) error {
	man, dir, err := diskio.ReadManifest(r.file("manifest"))
	if err != nil {
		return err
	}
	sx, err := core.OpenSharded(dir, man, 0)
	if err != nil {
		return err
	}
	defer sx.Close()
	in := r.in
	st := newStream(in.Seed, len(in.Pool))
	ids := make([]int, traceShardedReads)
	for i := range ids {
		ids[i] = st.next()
	}
	ctx := context.Background()
	query := func(req Request) error {
		q := coreQuery(req)
		var err error
		if usesNRA(req) {
			_, err = sx.QueryNRA(ctx, q, req.K, req.Fraction)
		} else {
			_, err = sx.QuerySMJ(ctx, q, req.K, req.Fraction)
		}
		return err
	}
	for _, idx := range ids { // warm-up
		if err := query(in.Pool[idx]); err != nil {
			return err
		}
	}
	for id, idx := range ids {
		req := in.Pool[idx]
		name := "core.sharded_smj"
		if usesNRA(req) {
			name = "core.sharded_nra"
		}
		t.timed(name, -1, writeIDBase/4+id, func() { err = query(req) })
		if err != nil {
			return err
		}
	}
	tok := textproc.Tokenizer{EmitSentenceBreaks: true}
	for _, op := range in.Schedule[:cycleWrites] {
		if op.Kind == "add" {
			d := in.Stream[op.Doc]
			sx.AddDocument(corpus.Document{Tokens: tok.Tokenize(d.Text), Facets: d.Facets})
		} else if err := sx.RemoveDocument(corpus.DocID(op.Delete)); err != nil {
			return err
		}
	}
	start := time.Now()
	if err := sx.Flush(); err != nil {
		return err
	}
	durs := layerTimes(t.spans, false)
	l.p50("core.sharded_nra_us", "us", durs["core.sharded_nra"])
	l.p50("core.sharded_smj_us", "us", durs["core.sharded_smj"])
	l.add("core.sharded_flush_s", "s", time.Since(start).Seconds(), "one 32-write cycle on 4 segments")
	return nil
}

// traceWritePath replays traceCycles cycles of the write schedule on a
// miner set up like the ingest-mono server (mapped snapshot, live tail,
// WAL with sync=always), with one pending query after every write. Each
// write's and query's layer calls are re-executed on separate core, tail
// and WAL instances fed the same inputs.
func traceWritePath(r *runner, t *tracer, l *layerSet, base string) error {
	in := r.in
	w, err := openIngestMiner(base, r.file("trace.snap"), r.file("trace-wal"))
	if err != nil {
		return err
	}
	defer w.Close()
	ix, err := core.OpenSnapshotFile(base, 0)
	if err != nil {
		return err
	}
	defer func() { ix.Close() }()
	tail, err := livetail.New(livetail.Config{DropAllStopwordPhrases: true})
	if err != nil {
		return err
	}
	wal, _, err := diskio.OpenWAL(r.file("trace-wal2"), diskio.WALOptions{Sync: diskio.WALSyncBatch})
	if err != nil {
		return err
	}
	defer wal.Close()
	tok := textproc.Tokenizer{EmitSentenceBreaks: true}
	st := newStream(in.Seed+1, len(in.Pool))
	ctx := context.Background()
	var depth, approx, walBytes []float64
	for c := 0; c < traceCycles; c++ {
		delta, err := ix.NewDelta()
		if err != nil {
			return err
		}
		smj, err := ix.BuildSMJ(fractions[0])
		if err != nil {
			return err
		}
		for wi, op := range in.Schedule[c*cycleWrites : (c+1)*cycleWrites] {
			id := writeIDBase + 2*(c*cycleWrites+wi)
			var rec diskio.WALRecord
			if op.Kind == "add" {
				d := in.Stream[op.Doc]
				rec = diskio.WALRecord{Op: diskio.WALAddDocument, Text: d.Text, Facets: d.Facets}
				a := t.timed("phrasemine.add", -1, id, func() { err = w.Add(phrasemine.Document{Text: d.Text, Facets: d.Facets}) })
				if err != nil {
					return err
				}
				var toks []string
				t.timed("textproc.tokenize", a, id, func() { toks = tok.Tokenize(d.Text) })
				cd := corpus.Document{Tokens: toks, Facets: d.Facets}
				t.timed("core.delta_add", a, id, func() { err = delta.AddDocument(cd) })
				if err != nil {
					return err
				}
				t.timed("livetail.add", a, id, func() { tail.Add(cd) })
				if err := traceWAL(t, wal, rec, a, id); err != nil {
					return err
				}
			} else {
				rec = diskio.WALRecord{Op: diskio.WALRemoveDocument, Doc: uint64(op.Delete)}
				rm := t.timed("phrasemine.remove", -1, id, func() { err = w.Remove(op.Delete) })
				if err != nil {
					return err
				}
				t.timed("core.delta_remove", rm, id, func() { err = delta.RemoveDocument(corpus.DocID(op.Delete)) })
				if err != nil {
					return err
				}
				if err := traceWAL(t, wal, rec, rm, id); err != nil {
					return err
				}
			}

			// One query with the write pending.
			qid := id + 1
			req := in.Pool[st.next()]
			q := coreQuery(req)
			pm := t.timed("phrasemine.mine_pending", -1, qid, func() {
				_, err = w.MineDetailed(ctx, req.Keywords, parseOp(req.Op),
					phrasemine.QueryOptions{K: req.K, ListFraction: req.Fraction})
			})
			if err != nil {
				return err
			}
			var res []topk.Result
			t.timed("core.delta_query", pm, qid, func() {
				if usesNRA(req) {
					res, _, err = delta.QueryNRA(q, topk.NRAOptions{K: req.K, Fraction: req.Fraction})
				} else {
					res, _, err = delta.QuerySMJ(smj, q, topk.SMJOptions{K: req.K})
				}
			})
			if err != nil {
				return err
			}
			depth = append(depth, float64(tail.Docs()))
			var (
				counts map[string]int
				isApx  bool
			)
			t.timed("livetail.counts", pm, qid, func() { counts, _, isApx = tail.Counts(q) })
			if isApx {
				approx = append(approx, 1)
			} else {
				approx = append(approx, 0)
			}
			baseC, tailC, err := liveCandidates(ix, tail, res, q, counts)
			if err != nil {
				return err
			}
			t.timed("topk.tail_merge", pm, qid, func() { topk.MergeLiveTail(baseC, tailC, req.K) })
		}
		walBytes = append(walBytes, float64(wal.Stats().Bytes)/cycleWrites)

		fid := writeIDBase + 2*(c+1)*cycleWrites - 1
		fl := t.timed("phrasemine.flush", -1, fid, func() { err = w.Flush() })
		if err != nil {
			return err
		}
		var next *core.Index
		t.timed("core.delta_flush", fl, fid, func() { next, err = delta.Flush() })
		if err != nil {
			return err
		}
		t.timed("diskio.checkpoint", fl, fid, func() {
			err = diskio.WriteToFileAtomic(r.file("trace-ckpt.snap"), 0o644, func(wr io.Writer) error {
				_, err := next.WriteSnapshot(wr)
				return err
			})
			if err == nil {
				err = wal.Reset()
			}
		})
		if err != nil {
			return err
		}
		tail.Clear()
		ix.Close()
		ix = next
	}

	adds, err := traceAdds(r, base)
	if err != nil {
		return err
	}
	durs := layerTimes(t.spans, false)
	l.p50("phrasemine.mine_pending_us", "us", durs["phrasemine.mine_pending"])
	l.p50("phrasemine.add_us", "us", adds)
	p99, err := namedPercentile("phrasemine.add_p99_us", adds, 99)
	if err != nil {
		return err
	}
	l.add("phrasemine.add_p99_us", "us", p99, fmt.Sprintf("p99 of %d adds", len(adds)))
	l.add("phrasemine.flush_s", "s", median(sec(durs["phrasemine.flush"])), "median of the replayed flushes")
	l.p50("core.delta_query_us", "us", durs["core.delta_query"])
	l.p50("core.delta_add_us", "us", durs["core.delta_add"])
	l.add("core.delta_flush_s", "s", median(sec(durs["core.delta_flush"])), "median of the replayed flushes")
	l.p50("topk.tail_merge_us", "us", durs["topk.tail_merge"])
	l.p50("textproc.tokenize_us", "us", durs["textproc.tokenize"])
	l.p50("livetail.add_us", "us", durs["livetail.add"])
	l.p50("livetail.counts_us", "us", durs["livetail.counts"])
	l.add("livetail.depth_docs", "count", mean(depth), "mean tail documents at query time")
	l.add("livetail.approx_ratio", "ratio", mean(approx), "share of tail lookups served by the sketch")
	l.p50("diskio.wal_append_us", "us", durs["diskio.wal_append"])
	l.p50("diskio.wal_sync_us", "us", durs["diskio.wal_sync"])
	l.add("diskio.wal_bytes_per_write", "bytes", mean(walBytes), "log bytes per write before each checkpoint")
	l.add("diskio.checkpoint_s", "s", median(sec(durs["diskio.checkpoint"])), "median of the replayed checkpoints")
	return nil
}

func sec(us []float64) []float64 {
	out := make([]float64, len(us))
	for i, x := range us {
		out[i] = x / 1e6
	}
	return out
}

// openIngestMiner opens the snapshot as ingest-mono's server does: mapped,
// with the live tail, and a WAL (sync=always) checkpointing to a link of
// the snapshot.
func openIngestMiner(base, snap, walDir string) (*phrasemine.Miner, error) {
	for _, p := range []string{snap, walDir} {
		if err := os.RemoveAll(p); err != nil {
			return nil, err
		}
	}
	if err := os.Link(base, snap); err != nil {
		return nil, err
	}
	m, err := phrasemine.OpenMinerMapped(snap, 0)
	if err != nil {
		return nil, err
	}
	if err := m.EnableLiveTail(phrasemine.TailConfig{}); err != nil {
		m.Close()
		return nil, err
	}
	if _, err := m.EnableWAL(phrasemine.WALConfig{Dir: walDir, Sync: "always", SnapshotPath: snap}); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// traceWAL appends a record and syncs it as two spans, the work Add's
// sync=always append does in one call.
func traceWAL(t *tracer, wal *diskio.WAL, rec diskio.WALRecord, parent, id int) error {
	var (
		seq int64
		err error
	)
	t.timed("diskio.wal_append", parent, id, func() { seq, err = wal.Append(rec) })
	if err != nil {
		return err
	}
	t.timed("diskio.wal_sync", parent, id, func() { err = wal.Sync(seq) })
	return err
}

// liveCandidates builds the inputs Miner's monolithic tail merge hands to
// topk.MergeLiveTail: the resolved base answer, plus tail phrases the base
// dictionary does not know.
func liveCandidates(ix *core.Index, tail *livetail.Tail, res []topk.Result, q corpus.Query, counts map[string]int) (base, fresh []topk.LiveCandidate, err error) {
	resolved, err := ix.Resolve(res, q)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range resolved {
		base = append(base, topk.LiveCandidate{Phrase: r.Phrase, Score: r.Score, BaseFreq: r.Estimate, BaseDF: 1})
	}
	for phrase, freq := range counts {
		df, err := ix.PhraseDocFreqByText(phrase)
		if err != nil {
			return nil, nil, err
		}
		if df == 0 {
			fresh = append(fresh, topk.LiveCandidate{Phrase: phrase, TailFreq: float64(freq), TailDF: float64(tail.DF(phrase))})
		}
	}
	return base, fresh, nil
}

// traceAdds times Miner.Add, as the ingest server runs it, over enough
// stream documents for a p99.
func traceAdds(r *runner, base string) ([]float64, error) {
	m, err := openIngestMiner(base, r.file("adds.snap"), r.file("adds-wal"))
	if err != nil {
		return nil, err
	}
	defer m.Close()
	var us []float64
	for _, d := range r.in.Stream[:streamMinDocs] {
		start := time.Now()
		if err := m.Add(phrasemine.Document{Text: d.Text, Facets: d.Facets}); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return us, nil
}

// traceBuild times the set-up layers: phrase extraction, the core build,
// opening the snapshot through the miner and through the mapping.
func traceBuild(r *runner, l *layerSet, base string) error {
	tok := textproc.Tokenizer{EmitSentenceBreaks: true}
	c := corpus.New()
	tokens := make([][]string, len(r.in.Base))
	for i, d := range r.in.Base {
		tokens[i] = tok.Tokenize(d.Text)
		if _, err := c.Add(corpus.Document{Tokens: tokens[i], Facets: d.Facets}); err != nil {
			return err
		}
	}
	ext := textproc.ExtractorOptions{MinDocFreq: minDocFreq, DropAllStopwordPhrases: true}
	start := time.Now()
	if _, err := textproc.Extract(tokens, ext); err != nil {
		return err
	}
	l.add("textproc.extract_s", "s", time.Since(start).Seconds(), "one phrase extraction over the corpus")
	start = time.Now()
	ix, err := core.Build(c, core.BuildOptions{Extractor: ext})
	if err != nil {
		return err
	}
	l.add("core.build_s", "s", time.Since(start).Seconds(), "one index build over the corpus")
	ix.Close()
	info, err := os.Stat(base)
	if err != nil {
		return err
	}
	l.add("diskio.snapshot_bytes", "bytes", float64(info.Size()), "monolithic snapshot size")
	var open, mapped []float64
	for i := 0; i < openReps; i++ {
		start := time.Now()
		m, err := phrasemine.OpenMinerMapped(base, 0)
		if err != nil {
			return err
		}
		open = append(open, float64(time.Since(start).Nanoseconds())/1e6)
		m.Close()
		start = time.Now()
		ms, err := diskio.MapSnapshotFile(base, core.SnapshotVersion)
		if err != nil {
			return err
		}
		mapped = append(mapped, float64(time.Since(start).Nanoseconds())/1e6)
		ms.Close()
	}
	l.add("phrasemine.open_ms", "ms", median(open), fmt.Sprintf("median of %d OpenMinerMapped calls", openReps))
	l.add("diskio.mmap_open_ms", "ms", median(mapped), fmt.Sprintf("median of %d MapSnapshotFile calls", openReps))
	return nil
}

// serverCounterMetrics derives the per-layer metrics only the server's
// own counters can give, as deltas over the end-to-end window.
func serverCounterMetrics(l *layerSet, o *outcome) {
	b, a := o.before, o.after
	var writes, batches float64
	if o.ingest != nil {
		writes = float64(len(o.ingest.writes.ms))
	}
	if o.batch != nil {
		batches = float64(len(o.batch.ms))
	}
	hits := float64(a.stats.Cache.Hits - b.stats.Cache.Hits)
	misses := float64(a.stats.Cache.Misses - b.stats.Cache.Misses)
	queries := a.queries - b.queries
	shHits := float64(a.stats.Index.SharedScanHits - b.stats.Index.SharedScanHits)
	shMisses := float64(a.stats.Index.SharedScanMisses - b.stats.Index.SharedScanMisses)
	l.add("server.cache_hit_ratio", "ratio", ratio(hits, hits+misses), "cache hits / lookups over the window")
	l.add("server.cache_invalidations_per_write", "count",
		ratio(float64(a.stats.Cache.Invalidations-b.stats.Cache.Invalidations), writes), "0 without writes")
	l.add("server.allocs_per_query", "count", ratio(a.mallocs-b.mallocs, queries), "serve-process mallocs per query or batch item")
	l.add("server.gc_per_1k_queries", "count", ratio(1000*(a.numGC-b.numGC), queries), "GC cycles per 1,000 queries or batch items")
	l.add("plist.shared_decode_ratio", "ratio", ratio(shHits, shHits+shMisses), "shared-scan block hits / lookups; 0 without batches")
	l.add("plist.decodes_per_batch", "count", ratio(shMisses, batches), "shared-scan block decodes per batch; 0 without batches")
}

// layerOrder is the report order of the per-layer metrics, matching
// BENCHMARK.json.
var layerOrder = []string{
	"server.self_us", "server.cache_hit_ratio", "server.cache_invalidations_per_write",
	"server.allocs_per_query", "server.gc_per_1k_queries",
	"phrasemine.mine_nra_us", "phrasemine.mine_smj_us", "phrasemine.self_us",
	"phrasemine.batch_us_per_item", "phrasemine.mine_pending_us", "phrasemine.add_us",
	"phrasemine.add_p99_us", "phrasemine.flush_s", "phrasemine.open_ms",
	"core.query_nra_us", "core.query_smj_us", "core.resolve_us", "core.delta_query_us",
	"core.delta_add_us", "core.delta_flush_s", "core.sharded_nra_us", "core.sharded_smj_us",
	"core.sharded_flush_s", "core.build_s",
	"topk.nra_entries_read", "topk.nra_fraction_traversed", "topk.nra_max_candidates",
	"topk.nra_stopped_early_ratio", "topk.smj_entries_read", "topk.smj_candidates", "topk.tail_merge_us",
	"plist.shared_decode_ratio", "plist.decodes_per_batch",
	"corpus.docs_selected", "corpus.select_us",
	"textproc.tokenize_us", "textproc.extract_s",
	"livetail.add_us", "livetail.counts_us", "livetail.depth_docs", "livetail.approx_ratio",
	"diskio.wal_append_us", "diskio.wal_sync_us", "diskio.wal_bytes_per_write", "diskio.checkpoint_s",
	"diskio.snapshot_bytes", "diskio.mmap_open_ms",
	"trace.overhead_pct",
}

// orderLayers puts the per-layer metrics in report order and fails when
// one is missing, since every traced run must report all of them.
func orderLayers(ms []metric) ([]metric, error) {
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(layerOrder))
	for _, n := range layerOrder {
		m, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("traced pass did not measure %s", n)
		}
		out = append(out, m)
	}
	return out, nil
}

// writeSpans writes the spans out as JSON lines next to the work
// directory, once the pass is over.
func writeSpans(r *runner, t *tracer) error {
	path := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", r.w.name, r.in.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
