package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/engine"
	"supg/internal/index"
	"supg/internal/labelstore"
	"supg/internal/metrics"
	"supg/internal/multiproxy"
	"supg/internal/oracle"
	"supg/internal/query"
	"supg/internal/randx"
	"supg/internal/sampling"
	"supg/internal/server"
	"supg/internal/storage"
)

// span is one timed call at a layer boundary. Spans of one op share its
// number; replay spans hang under the op's "replay" root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-op layer tallies in memory; write dumps the
// spans when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	handler map[int]time.Duration // op → time inside Server.ServeHTTP
	udf     *udfTiming

	// set-up measurements: the last set-up's, or the trace set-up's
	setup map[string]float64

	// per-op tallies of the traced window, summed
	sum map[string]float64
	ops int

	// last snapshots, so each op's counter deltas exclude its replay
	lastLS    labelstore.Stats
	lastStats metrics.CounterSnapshot

	replayIx map[string]*index.ScoreIndex // (table, source) → the replay's index
}

func newTracer() *tracer {
	t := &tracer{
		t0:       time.Now(),
		handler:  map[int]time.Duration{},
		setup:    map[string]float64{},
		sum:      map[string]float64{},
		replayIx: map[string]*index.ScoreIndex{},
	}
	t.udf = &udfTiming{t0: t.t0}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.now()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// add records a completed span without timing it here.
func (t *tracer) add(name string, op, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handlerWrap times Server.ServeHTTP per op in traced runs.
func (b *bench) handlerWrap() func(http.Handler) http.Handler {
	if !b.traced {
		return nil
	}
	t := b.tr
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, r)
			d := time.Since(start)
			if op, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
				t.mu.Lock()
				t.handler[op] += d
				t.mu.Unlock()
			}
		})
	}
}

// opTag is the op number sent to the handler timer (-1 untraced).
func (b *bench) opTag(o *opRecord) int {
	if b.traced {
		return o.k
	}
	return -1
}

// warmUpEngine runs a set-up query through the engine, recording the
// index acquisition time it reports.
func (t *tracer) warmUpEngine(p *inproc, sql string) error {
	res, err := p.srv.Engine().ExecuteContext(context.Background(), sql, engine.ExecOptions{})
	if err != nil {
		return err
	}
	t.setup["engine.index_acquire_ms"] += ms(res.ProxyElapsed)
	return nil
}

// replaySys is what a traced replay runs against: a live engine and its
// counters. For restart-recover it is a replica server, which the
// replay also queries over HTTP to time its handler.
type replaySys struct {
	eng      *engine.Engine
	counters func() metrics.CounterSnapshot
	par      int     // oracle parallelism of the server
	replica  *client // restart-recover only
	own      *inproc // the replica server, closed when the run ends
}

// runTraced replays the workload's ops through each layer. The window
// is split: the first half runs untraced, the second traced, and the
// difference in op latency and CPU per op is the tracing overhead.
func (b *bench) runTraced(probeBefore time.Duration) (*result, error) {
	t := b.tr
	sys, err := b.traceSetup()
	if err != nil {
		return nil, fmt.Errorf("trace set-up: %w", err)
	}
	if sys.own != nil {
		defer sys.own.close()
		defer sys.replica.close()
	}
	half := b.seconds / 2
	cEnd := -1
	if w, ok := b.w.(*ingestDurable); ok {
		cEnd = len(w.batches) / 2
	}
	plain, err := b.window(half, 0, cEnd, nil)
	if err != nil {
		return nil, err
	}
	if err := b.buildReplayIndexes(); err != nil {
		return nil, err
	}
	t.lastLS, t.lastStats = sys.eng.LabelStore().Stats(), sys.counters()
	t.udf.reset()
	traced, err := b.window(half, plain.cycles, -1, func(cl *client, o *opRecord) error {
		return b.replay(sys, o)
	})
	if err != nil {
		return nil, err
	}
	probeAfter := hostProbe()
	fmt.Fprintf(b.log, "host probe: before=%.1fms after=%.1fms (diagnostic only)\n", ms(probeBefore), ms(probeAfter))
	ps, err := b.summarize(plain)
	if err != nil {
		return nil, err
	}
	ts, err := b.summarize(traced)
	if err != nil {
		return nil, err
	}
	if err := b.traceEnd(sys, traced); err != nil {
		return nil, err
	}
	m := b.perLayer(traced)
	b.reportLayers(m, ps, ts)
	failed := ps.failed + ts.failed + t.fidelityFailures()
	return &result{
		Correct:   failed == 0,
		Attempted: len(plain.ops) + len(traced.ops),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// fidelityFailures counts replays that did not reproduce their answer.
func (t *tracer) fidelityFailures() int { return int(t.sum["replay.mismatches"]) }

// tracedTables lists the workload's tables with their upload bodies.
func (b *bench) tracedTables() ([]*table, [][]byte) {
	switch w := b.w.(type) {
	case *warmSelect:
		return w.tables, w.bodies
	case *oracleBound:
		return []*table{w.night}, [][]byte{w.body}
	case *ingestDurable:
		return []*table{w.night}, [][]byte{w.base}
	case *restartRecover:
		return []*table{w.night}, [][]byte{w.body}
	}
	return nil, nil
}

// traceSetup prepares the replay target and times decoding the upload
// bodies. For restart-recover it opens a replica server on a copy of
// the persisted directory.
func (b *bench) traceSetup() (*replaySys, error) {
	t := b.tr
	var sys *replaySys
	switch w := b.w.(type) {
	case *warmSelect:
		sys = inprocReplay(w.p, 1)
	case *oracleBound:
		sys = inprocReplay(w.p, oraclePar)
	case *ingestDurable:
		sys = inprocReplay(w.p, 1)
	case *restartRecover:
		replica, err := b.openReplica(w)
		if err != nil {
			return nil, err
		}
		sys = inprocReplay(replica, 1)
		sys.replica, sys.own = newClient(replica.base), replica
	}
	tables, bodies := b.tracedTables()
	for i, tb := range tables {
		start := time.Now()
		if _, err := dataset.ReadBinarySized(bytes.NewReader(bodies[i]), tb.name, int64(len(bodies[i]))); err != nil {
			return nil, err
		}
		t.setup["dataset.decode_ms"] += ms(time.Since(start))
	}
	return sys, nil
}

// buildReplayIndexes indexes (and fuses, where a workload queries the
// fused source) the benchmark's own columns as they stand.
func (b *bench) buildReplayIndexes() error {
	tables, _ := b.tracedTables()
	for _, tb := range tables {
		if err := b.tr.buildReplayIndex(tb, srcProxy); err != nil {
			return err
		}
		if tb.name == "night" && b.name != "oracle-bound" {
			if err := b.tr.buildReplayIndex(tb, srcFused); err != nil {
				return err
			}
		}
	}
	return nil
}

func inprocReplay(p *inproc, par int) *replaySys {
	return &replaySys{eng: p.srv.Engine(), counters: p.srv.Counters().Snapshot, par: par}
}

// openReplica times storage.Open on a copy of the persisted directory
// and then serves the copy in-process, as the child does, so the query
// path of a recovered server can be replayed layer by layer.
func (b *bench) openReplica(w *restartRecover) (*inproc, error) {
	t := b.tr
	cp := filepath.Join(b.workDir, "replica")
	if err := copyDir(w.dir, cp); err != nil {
		return nil, err
	}
	start := time.Now()
	st, err := storage.Open(storage.Options{Dir: cp})
	if err != nil {
		return nil, err
	}
	t.setup["storage.open_ms"] = ms(time.Since(start))
	if err := st.Close(); err != nil {
		return nil, err
	}
	p, err := startServer(b.seed, server.Options{PersistDir: cp, LabelWALPath: filepath.Join(cp, "labels.wal")}, b.handlerWrap())
	if err != nil {
		return nil, err
	}
	register(p.srv, w.night, nil)
	if err := t.warmUpEngine(p, w.text.sql); err != nil {
		_ = p.close() // the warm-up error is the one to report
		return nil, err
	}
	return p, nil
}

func replayKey(tb *table, src source) string { return fmt.Sprintf("%s/%d", tb.name, src) }

// buildReplayIndex fuses (for the fused source) and indexes the
// benchmark's own column, timing both.
func (t *tracer) buildReplayIndex(tb *table, src source) error {
	n := tb.len()
	col := tb.scores[:n]
	if src == srcFused {
		start := time.Now()
		fused, err := multiproxy.Fuser{Kind: multiproxy.FuseMean}.Fuse(nil, [][]float64{tb.scores[:n], tb.soft[:n]}, nil)
		if err != nil {
			return err
		}
		t.setup["multiproxy.fuse_ms"] += ms(time.Since(start))
		col = fused.Scores
	}
	start := time.Now()
	ix, err := index.NewWithOptions(col, index.Options{})
	if err != nil {
		return err
	}
	t.setup["index.build_ms"] += ms(time.Since(start))
	t.replayIx[replayKey(tb, src)] = ix
	return nil
}

// replay runs after op o answered: it measures o's counter deltas, then
// replays o through the layers' entry points and checks that the
// replay reproduces o's τ, oracle_calls and returned.
func (b *bench) replay(sys *replaySys, o *opRecord) error {
	t := b.tr
	a := &o.ans
	// Counter deltas of the op itself, taken before the replay touches
	// the label store.
	lsNow := sys.eng.LabelStore().Stats()
	cNow := sys.counters()
	busy, span, calls := time.Duration(t.udf.busy.Load()), t.udf.span(), float64(o.udfCalls)
	if s := o.boot; s != nil {
		// A boot's own counters, from the child's /v1/stats.
		t.sum["labelstore.hits"] += float64(s.LabelCacheHits)
		t.sum["labelstore.misses"] += float64(s.LabelCacheMisses)
		t.sum["labelstore.evictions"] += float64(s.LabelCacheEvictions)
		t.sum["labelstore.wal_records"] += float64(s.WALRecords)
		t.sum["labelstore.wal_replayed"] += float64(s.WALReplayed)
		t.sum["oracle.dispatch_batches"] += float64(s.DispatchBatches)
		t.sum["storage.manifest_records"] += float64(s.StorageManifestRecords)
		t.sum["storage.segments_persisted"] += float64(s.StorageSegmentsPersisted)
		t.sum["storage.recovery_ms"] += float64(s.StorageRecoveryMillis)
		t.sum["storage.mapped_mb"] += float64(s.StorageMappedBytes) / (1 << 20)
	} else {
		t.sum["labelstore.hits"] += float64(lsNow.Hits - t.lastLS.Hits)
		t.sum["labelstore.misses"] += float64(lsNow.Misses - t.lastLS.Misses)
		t.sum["labelstore.evictions"] += float64(lsNow.Evictions - t.lastLS.Evictions)
		t.sum["labelstore.wal_records"] += float64(lsNow.WALRecords - t.lastLS.WALRecords)
		t.sum["oracle.dispatch_batches"] += float64(cNow.DispatchBatches - t.lastStats.DispatchBatches)
		t.sum["storage.manifest_records"] += float64(gaugeDelta(t.lastStats.StorageManifestRecords, cNow.StorageManifestRecords))
		t.sum["storage.segments_persisted"] += float64(cNow.StorageSegmentsPersisted - t.lastStats.StorageSegmentsPersisted)
	}
	t.ops++
	t.sum["oracle.udf_calls"] += calls
	t.sum["oracle.udf_busy_ms"] += ms(busy)
	t.sum["oracle.udf_span_ms"] += ms(span)
	t.sum["op_ms"] += ms(o.lat)
	t.sum["server.response_bytes"] += float64(a.bytes)
	if a.ProxyCalls > 0 && !a.IndexRecovered {
		if a.ProxyCalls >= o.n {
			t.sum["engine.index_builds"]++
		} else {
			t.sum["engine.index_extends"]++
		}
	}
	if a.IndexRecovered {
		t.sum["engine.index_recovered"]++
	}

	root := t.begin("replay", o.k, -1)
	defer func() {
		t.end(root)
		t.lastLS = sys.eng.LabelStore().Stats()
		t.lastStats = sys.counters()
		t.udf.reset()
	}()
	q := o.text
	if o.batch >= 0 {
		if err := b.replayAppend(o, root); err != nil {
			return err
		}
	}
	if sys.replica != nil {
		// The op's server is a child process; time the same request
		// against the in-process replica's handler instead.
		start := time.Now()
		if _, err := sys.replica.query(queryBody(q.sql, o.include), nil, o.k); err != nil {
			return err
		}
		t.sum["replica_rt_ms"] += ms(time.Since(start))
	}

	sp := t.begin("query.parse_plan", o.k, root)
	parsed, err := query.Parse(q.sql)
	if err != nil {
		return err
	}
	plan, err := query.BuildPlan(parsed, query.PlanOptions{})
	if err != nil {
		return err
	}
	t.sum["query.parse_plan_us"] += float64(t.end(sp)) / float64(time.Microsecond)

	// The core replay: the same plan over the benchmark's own index of
	// the same column, through decorators that time every index and
	// label-store call. It runs first, so its index is as cold as the
	// server's was (an append drops cached mixtures).
	ix := t.replayIx[replayKey(q.table, q.src)]
	if ix == nil || ix.Len() != o.n {
		return fmt.Errorf("no replay index of %d records for %s", o.n, replayKey(q.table, q.src))
	}
	labels := q.table.labels[:o.n]
	store := sys.eng.LabelStore().Cache(plan.Table, plan.OracleUDF)
	sp = t.begin("core.select", o.k, root)
	src := &tracedSource{ix: ix, t: t, op: o.k, parent: sp}
	cache := &tracedCache{inner: store}
	ids, tau, calls2, err := coreSelect(b.seed, plan, src, labels, cache)
	if err != nil {
		return err
	}
	selD := t.end(sp)
	t.sum["core.select_ms"] += ms(selD)
	t.sum["core.label_requests"] += float64(cache.gets)
	t.sum["labelstore.get_us"] += float64(cache.busy) / float64(time.Microsecond)
	t.sum["core.self_ms"] += ms(selD - src.busy - cache.busy)

	// The engine's own share: a warm ExecutePlanContext minus an equally
	// warm, undecorated core call and any oracle time it spent.
	busy0 := t.udf.busy.Load()
	sp = t.begin("engine.execute", o.k, root)
	eres, err := sys.eng.ExecutePlanContext(context.Background(), plan, engine.ExecOptions{OracleParallelism: sys.par})
	if err != nil {
		return err
	}
	execD := t.end(sp)
	execUDF := time.Duration(t.udf.busy.Load() - busy0)
	t.sum["engine.execute_ms"] += ms(execD)
	start := time.Now()
	if _, _, _, err := coreSelect(b.seed, plan, ix, labels, readOnly{store}); err != nil {
		return err
	}
	t.sum["engine.self_ms"] += ms(execD - time.Since(start) - execUDF)

	if math.Float64bits(tau) != math.Float64bits(a.tau()) || calls2 != a.OracleCalls || len(ids) != a.Returned ||
		math.Float64bits(eres.Tau) != math.Float64bits(tau) || len(eres.Indices) != len(ids) {
		t.sum["replay.mismatches"]++
		fmt.Fprintf(b.log, "REPLAY MISMATCH op %d: http tau/calls/returned %v/%d/%d, core %v/%d/%d, engine %v/%d/%d\n",
			o.k, a.tau(), a.OracleCalls, a.Returned, tau, calls2, len(ids), eres.Tau, eres.OracleCalls, len(eres.Indices))
	}

	d, err := dataset.FromColumns(q.table.name, q.table.scores[:o.n], labels)
	if err != nil {
		return err
	}
	sp = t.begin("metrics.evaluate", o.k, root)
	ev := metrics.Evaluate(d, ids)
	t.sum["metrics.evaluate_ms"] += ms(t.end(sp))

	resp := server.QueryResponse{
		Returned: len(ids), OracleCalls: calls2, LabelCacheHits: a.LabelCacheHits,
		AchievedPrecision: ev.Precision, AchievedRecall: ev.Recall,
	}
	if !math.IsInf(tau, 0) {
		resp.Tau = &tau
	}
	if o.include {
		resp.Indices = ids
	}
	sp = t.begin("server.encode", o.k, root)
	if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
		return err
	}
	t.sum["server.encode_ms"] += ms(t.end(sp))
	return nil
}

// coreSelect runs plan's selection over src with the benchmark's ground
// truth behind store, deriving the random stream exactly as the engine
// does: randx.New(seed).Stream(FNV-1a(plan.SourceText)).
func coreSelect(seed uint64, plan *query.Plan, src core.ScoreSource, labels []bool, store oracle.LabelCache) ([]int, float64, int, error) {
	orc := oracle.Func(func(i int) (bool, error) { return labels[i], nil })
	rng := randx.New(seed).Stream(fnvString(plan.SourceText))
	sopts := core.SelectOptions{Store: store}
	ctx := context.Background()
	if plan.Kind == query.PlanJoint {
		sel, err := core.SelectJointFromContextOptions(ctx, rng, src, orc, plan.JointSpec, plan.Config, sopts)
		return sel.Indices, sel.Tau, sel.OracleCalls, err
	}
	sel, err := core.SelectFromContextOptions(ctx, rng, src, orc, plan.Spec, plan.Config, sopts)
	return sel.Indices, sel.Tau, sel.OracleCalls, err
}

// replayAppend decodes an ingest op's batch and extends the replay
// indexes with it, as the engine extends its own.
func (b *bench) replayAppend(o *opRecord, root int) error {
	t := b.tr
	w := b.w.(*ingestDurable)
	bt := w.batches[o.batch]
	sp := t.begin("dataset.decode", o.k, root)
	if _, err := dataset.ReadBinarySized(bytes.NewReader(bt.body), "night", int64(len(bt.body))); err != nil {
		return err
	}
	t.sum["dataset.decode_ms"] += ms(t.end(sp))
	soft := w.night.soft[o.n-len(bt.scores) : o.n]
	sp = t.begin("multiproxy.fuse", o.k, root)
	fused, err := multiproxy.Fuser{Kind: multiproxy.FuseMean}.Fuse(nil, [][]float64{bt.scores, soft}, nil)
	if err != nil {
		return err
	}
	t.sum["multiproxy.fuse_ms"] += ms(t.end(sp))
	for _, a := range []struct {
		src  source
		tail []float64
	}{{srcProxy, bt.scores}, {srcFused, fused.Scores}} {
		key := replayKey(w.night, a.src)
		sp = t.begin("index.append", o.k, root)
		ix, err := t.replayIx[key].Append(a.tail)
		if err != nil {
			return err
		}
		t.sum["index.append_ms"] += ms(t.end(sp))
		t.replayIx[key] = ix
	}
	t.sum["storage.user_bytes"] += float64(len(bt.body))
	return nil
}

// gaugeDelta is how many records a log-length gauge gained; a drop
// means the log was compacted, after which all of now is new.
func gaugeDelta(last, now int64) int64 {
	if now < last {
		return now
	}
	return now - last
}

// traceEnd takes the end-of-run measurements.
func (b *bench) traceEnd(sys *replaySys, win *window) error {
	t := b.tr
	var segs, resident float64
	for _, ix := range t.replayIx {
		segs += float64(ix.Segments())
		resident += float64(ix.ResidentBytes()) / (1 << 20)
	}
	t.sum["index.segments"], t.sum["index.resident_mb"] = segs, resident
	t.sum["labelstore.entries"] = float64(sys.eng.LabelStore().Stats().Entries)
	if w, ok := b.w.(*ingestDurable); ok {
		cp := filepath.Join(b.workDir, "open-copy")
		if err := copyDir(w.dir, cp); err != nil {
			return err
		}
		start := time.Now()
		st, err := storage.Open(storage.Options{Dir: cp})
		if err != nil {
			return err
		}
		t.setup["storage.open_ms"] = ms(time.Since(start))
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// layerMetric is one reported per-layer value with an optional note on
// what it is per.
type layerMetric struct {
	name, unit string
	v          float64
	note       string
}

// gatedLayers are the per-layer metrics every workload measures; they
// form the JSON result of a traced run. The rest are printed in the
// report where they apply.
var gatedLayers = []struct{ name, unit string }{
	{"server.handler_ms", "ms"}, {"server.transport_ms", "ms"}, {"server.response_bytes", "B"}, {"server.encode_ms", "ms"},
	{"query.parse_plan_us", "us"},
	{"engine.execute_ms", "ms"}, {"engine.self_ms", "ms"}, {"engine.index_acquire_ms", "ms"},
	{"engine.index_builds", "count"}, {"engine.index_extends", "count"}, {"engine.index_recovered", "count"},
	{"core.select_ms", "ms"}, {"core.self_ms", "ms"}, {"core.label_requests", "count"},
	{"index.count_calls", "count"}, {"index.count_us", "us"}, {"index.kth_calls", "count"}, {"index.kth_us", "us"},
	{"index.gather_ms", "ms"}, {"index.gathered_ids", "count"}, {"index.mixture_ms", "ms"},
	{"index.build_ms", "ms"}, {"index.segments", "count"}, {"index.resident_mb", "MiB"},
	{"oracle.udf_calls", "count"}, {"oracle.dispatch_batches", "count"}, {"oracle.blocked_share", "ratio"},
	{"labelstore.hits", "count"}, {"labelstore.misses", "count"}, {"labelstore.hit_ratio", "ratio"},
	{"labelstore.get_us", "us"}, {"labelstore.evictions", "count"}, {"labelstore.wal_records", "count"},
	{"labelstore.entries", "count"},
	{"storage.write_bytes", "B"}, {"storage.manifest_records", "count"}, {"storage.segments_persisted", "count"},
	{"dataset.decode_ms", "ms"}, {"metrics.evaluate_ms", "ms"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_share", "ratio"},
}

// perLayer reduces the traced window to per-op layer metrics.
func (b *bench) perLayer(win *window) map[string]metric {
	t := b.tr
	n := float64(t.ops)
	per := func(k string) float64 { return t.sum[k] / n }
	var handler time.Duration
	t.mu.Lock()
	for _, o := range win.ops {
		handler += t.handler[o.k]
	}
	t.mu.Unlock()
	// Round trip minus handler: the op itself, or for restart-recover
	// the replica request.
	rt := t.sum["op_ms"]
	if b.name == "restart-recover" {
		rt = t.sum["replica_rt_ms"]
	}
	v := map[string]float64{
		"server.transport_ms":    (rt - ms(handler)) / n,
		"server.handler_ms":      ms(handler) / n,
		"server.response_bytes":  per("server.response_bytes"),
		"server.encode_ms":       per("server.encode_ms"),
		"query.parse_plan_us":    per("query.parse_plan_us"),
		"engine.execute_ms":      per("engine.execute_ms"),
		"engine.self_ms":         per("engine.self_ms"),
		"engine.index_builds":    per("engine.index_builds"),
		"engine.index_extends":   per("engine.index_extends"),
		"engine.index_recovered": per("engine.index_recovered"),
		"core.select_ms":         per("core.select_ms"),
		"core.self_ms":           per("core.self_ms"),
		"core.label_requests":    per("core.label_requests"),
		"index.count_calls":      per("index.count_calls"),
		"index.count_us":         per("index.count_us"),
		"index.kth_calls":        per("index.kth_calls"),
		"index.kth_us":           per("index.kth_us"),
		"index.gather_ms":        per("index.gather_ms"),
		"index.gathered_ids":     per("index.gathered_ids"),
		"index.mixture_ms":       per("index.mixture_ms"),
		"index.segments":         t.sum["index.segments"],
		"index.resident_mb":      t.sum["index.resident_mb"],
		"oracle.udf_calls":       per("oracle.udf_calls"),
		"labelstore.get_us":      per("labelstore.get_us"),
		"labelstore.entries":     t.sum["labelstore.entries"],
		"metrics.evaluate_ms":    per("metrics.evaluate_ms"),
		"runtime.gc_cycles":      float64(win.gc1.cycles-win.gc0.cycles) / float64(len(win.ops)),
	}
	for _, k := range []string{"labelstore.hits", "labelstore.misses", "labelstore.evictions",
		"labelstore.wal_records", "oracle.dispatch_batches", "storage.manifest_records", "storage.segments_persisted"} {
		v[k] = per(k)
	}
	if lookups := v["labelstore.hits"] + v["labelstore.misses"]; lookups > 0 {
		v["labelstore.hit_ratio"] = v["labelstore.hits"] / lookups
	}
	if op := t.sum["op_ms"]; op > 0 {
		v["oracle.blocked_share"] = t.sum["oracle.udf_span_ms"] / op
	}
	v["engine.index_acquire_ms"] = t.setup["engine.index_acquire_ms"]
	v["index.build_ms"] = t.setup["index.build_ms"]
	if b.name == "ingest-durable" {
		v["dataset.decode_ms"] = per("dataset.decode_ms")
	} else {
		v["dataset.decode_ms"] = t.setup["dataset.decode_ms"]
	}
	if b.name == "restart-recover" {
		var childIO int64
		for _, o := range win.ops {
			childIO += o.childIO
		}
		v["storage.write_bytes"] = float64(childIO) / n
	} else {
		v["storage.write_bytes"] = float64(win.io1-win.io0) / n
	}
	if d := win.gc1.cpu - win.gc0.cpu; d > 0 {
		v["runtime.gc_cpu_share"] = (win.gc1.gcCPU - win.gc0.gcCPU) / d
	}
	out := make(map[string]metric, len(gatedLayers))
	for _, g := range gatedLayers {
		out[g.name] = metric{v[g.name], g.unit}
	}
	return out
}

// reportLayers prints every per-layer metric, the workload-specific
// ones included, and the tracing overhead.
func (b *bench) reportLayers(m map[string]metric, plain, traced *summary) {
	t := b.tr
	w := b.log
	n := float64(t.ops)
	fmt.Fprintf(w, "traced ops: %d (replayed answers reproduced: %d of %d)\n", t.ops, t.ops-t.fidelityFailures(), t.ops)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "layer %-30s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	extra := []layerMetric{
		{"oracle.udf_busy_ms", "ms", t.sum["oracle.udf_busy_ms"] / n, ""},
		{"oracle.udf_span_ms", "ms", t.sum["oracle.udf_span_ms"] / n, ""},
	}
	if span := t.sum["oracle.udf_span_ms"]; span > 0 {
		extra = append(extra, layerMetric{"oracle.concurrency", "ratio", t.sum["oracle.udf_busy_ms"] / span, "busy / span"})
	}
	if v, ok := t.setup["multiproxy.fuse_ms"]; ok {
		extra = append(extra, layerMetric{"multiproxy.fuse_ms", "ms", v, "once per run: the member columns"})
	}
	if v, ok := t.sum["multiproxy.fuse_ms"]; ok {
		extra = append(extra, layerMetric{"multiproxy.fuse_ms", "ms", v / n, "per op: the appended tail"})
	}
	if v, ok := t.sum["index.append_ms"]; ok {
		extra = append(extra, layerMetric{"index.append_ms", "ms", v / n, ""})
	}
	if v, ok := t.setup["storage.open_ms"]; ok {
		extra = append(extra, layerMetric{"storage.open_ms", "ms", v, "per open of a copy of the directory"})
	}
	if ub := t.sum["storage.user_bytes"]; ub > 0 {
		extra = append(extra, layerMetric{"storage.write_amplification", "ratio", m["storage.write_bytes"].Value * n / ub, "write bytes / appended binary bytes"})
	}
	if b.name == "restart-recover" {
		extra = append(extra,
			layerMetric{"storage.recovery_ms", "ms", t.sum["storage.recovery_ms"] / n, "per boot, child /v1/stats"},
			layerMetric{"storage.mapped_mb", "MiB", t.sum["storage.mapped_mb"] / n, "per boot, child /v1/stats"},
			layerMetric{"labelstore.wal_replayed", "count", t.sum["labelstore.wal_replayed"] / n, "per boot, child /v1/stats"})
	}
	extra = append(extra,
		layerMetric{"trace.overhead_latency_p50_ms", "ms", traced.p50 - plain.p50, "traced half minus untraced half"},
		layerMetric{"trace.overhead_cpu_ms_per_op", "ms", traced.cpuPerOp - plain.cpuPerOp, "traced half minus untraced half"})
	for _, e := range extra {
		fmt.Fprintf(w, "layer %-30s %14.6g %s", e.name, e.v, e.unit)
		if e.note != "" {
			fmt.Fprintf(w, " (%s)", e.note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "untraced half: ops=%d p50=%.3fms cpu/op=%.3fms digest=%016x; traced half: ops=%d p50=%.3fms cpu/op=%.3fms digest=%016x\n",
		plain.ops, plain.p50, plain.cpuPerOp, plain.digest, traced.ops, traced.p50, traced.cpuPerOp, traced.digest)
}

// tracedSource is a core.ScoreSource decorator that times every call
// into the index.
type tracedSource struct {
	ix     *index.ScoreIndex
	t      *tracer
	op     int
	parent int
	busy   time.Duration
}

func (s *tracedSource) Len() int          { return s.ix.Len() }
func (s *tracedSource) Scores() []float64 { return s.ix.Scores() }

func (s *tracedSource) timed(name string, start time.Time) time.Duration {
	end := time.Now()
	s.t.add(name, s.op, s.parent, start, end)
	d := end.Sub(start)
	s.busy += d
	return d
}

func (s *tracedSource) CountAtLeast(tau float64) int {
	start := time.Now()
	n := s.ix.CountAtLeast(tau)
	d := s.timed("index.count", start)
	s.t.sum["index.count_calls"]++
	s.t.sum["index.count_us"] += float64(d) / float64(time.Microsecond)
	return n
}

func (s *tracedSource) KthHighest(k int) float64 {
	start := time.Now()
	v := s.ix.KthHighest(k)
	d := s.timed("index.kth", start)
	s.t.sum["index.kth_calls"]++
	s.t.sum["index.kth_us"] += float64(d) / float64(time.Microsecond)
	return v
}

func (s *tracedSource) AppendAtLeast(dst []int, tau float64) []int {
	start := time.Now()
	before := len(dst)
	dst = s.ix.AppendAtLeast(dst, tau)
	d := s.timed("index.gather", start)
	s.t.sum["index.gather_ms"] += ms(d)
	s.t.sum["index.gathered_ids"] += float64(len(dst) - before)
	return dst
}

func (s *tracedSource) Mixture(exponent, mix float64) ([]float64, *sampling.Alias) {
	start := time.Now()
	w, a := s.ix.Mixture(exponent, mix)
	s.t.sum["index.mixture_ms"] += ms(s.timed("index.mixture", start))
	return w, a
}

// tracedCache is an oracle.LabelCache decorator over the engine's label
// store that times every lookup. It drops writes: a replay must not
// change what the store holds (or journals).
type tracedCache struct {
	inner oracle.LabelCache
	gets  int
	busy  time.Duration
}

func (c *tracedCache) Get(i int) (bool, bool) {
	start := time.Now()
	v, ok := c.inner.Get(i)
	c.busy += time.Since(start)
	c.gets++
	return v, ok
}

func (c *tracedCache) Put(int, bool) {}

// readOnly serves a label cache's hits and drops its writes.
type readOnly struct{ oracle.LabelCache }

func (readOnly) Put(int, bool) {}

var (
	_ core.ScoreSource  = (*tracedSource)(nil)
	_ oracle.LabelCache = (*tracedCache)(nil)
)
