package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"supg/internal/dataset"
	"supg/internal/metrics"
	"supg/internal/randx"
	"supg/internal/server"
)

// Input streams: every generated input derives from the run seed
// through a fixed stream id, so one seed always yields the same inputs.
const (
	streamNight = 1
	streamBeta  = 2
	streamWide  = 3
	streamJoint = 4
	streamOps   = 1 << 20 // + cycle number: op order of a cycle
	streamBatch = 1 << 21 // + batch number: ingest batches
)

// Workload sizes.
const (
	bigN          = 1_000_000
	jointN        = 200_000 // the joint-target table
	ingestBatch   = 8192
	ingestOpsPerS = 8 // ingest-durable runs a fixed list of max(minOps, ingestOpsPerS × seconds) ops
	oracleSleep   = 200 * time.Microsecond
	oraclePar     = 16
	warmRepeats   = 8 // each warm-select text runs 8 times a cycle, once with ids
	boundTexts    = 64
)

// columns returns a generated dataset's scores and labels, and renders
// its binary upload body.
func columns(d *dataset.Dataset) ([]float64, []bool, []byte, error) {
	labels := make([]bool, d.Len())
	for i := range labels {
		labels[i] = d.TrueLabel(i)
	}
	var body bytes.Buffer
	if err := dataset.WriteBinary(&body, d); err != nil {
		return nil, nil, nil, err
	}
	return d.Scores(), labels, body.Bytes(), nil
}

// tableFrom copies a generated dataset into a benchmark table with room
// for grow more records, and renders its upload body.
func tableFrom(name string, d *dataset.Dataset, grow int) (*table, []byte, error) {
	scores, labels, body, err := columns(d)
	if err != nil {
		return nil, nil, err
	}
	return newTable(name, scores, labels, grow), body, nil
}

// register installs the benchmark's UDFs for t on a server: its oracle
// (replacing the dataset default) and the soft proxy.
func register(srv *server.Server, t *table, u *oracleUDF) {
	if u != nil {
		srv.Engine().RegisterOracle(t.name+"_oracle", u.call)
	}
	srv.RegisterProxy(t.name+"_proxy_soft", func(i int) float64 { return t.soft[i] })
}

// shuffled returns specs in the seeded order of cycle c.
func shuffled(seed uint64, c int, specs []opSpec) []opSpec {
	randx.New(seed).Stream(streamOps+uint64(c)).Shuffle(len(specs), func(i, j int) {
		specs[i], specs[j] = specs[j], specs[i]
	})
	return specs
}

// inprocBase is the part every in-process workload shares.
type inprocBase struct {
	p *inproc
}

func (w *inprocBase) newClient() *client { return newClient(w.p.base) }

func (w *inprocBase) teardownServer() error {
	if w.p == nil {
		return nil
	}
	err := w.p.close()
	w.p = nil
	return err
}

// warmUp runs one set-up query: over HTTP, or in a traced run through
// the engine so the index acquisition time is visible.
func (b *bench) warmUp(p *inproc, cl *client, sql string) error {
	if b.traced {
		return b.tr.warmUpEngine(p, sql)
	}
	_, err := cl.query(queryBody(sql, false), nil, -1)
	return err
}

// ---- warm-select ----

// warmSelect is the proxy-side read path with everything cached: built
// indexes, cached mixtures and label-store hits, zero oracle calls.
type warmSelect struct {
	inprocBase
	seed   uint64
	tables []*table
	bodies [][]byte
	udfs   []*oracleUDF
	texts  []*queryText
}

func (w *warmSelect) clients() int          { return 1 }
func (w *warmSelect) oracles() []*oracleUDF { return w.udfs }
func (w *warmSelect) persistDir() string    { return "" }
func (w *warmSelect) teardown(*bench) error { return w.teardownServer() }
func (w *warmSelect) endCycle(*bench) error { return nil }

func (w *warmSelect) generate(b *bench) error {
	w.seed = b.seed
	r := randx.New(b.seed)
	gens := []struct {
		name string
		d    *dataset.Dataset
	}{
		{"night", dataset.NightStreetSimN(r.Stream(streamNight), bigN)},
		{"beta", dataset.Beta(r.Stream(streamBeta), bigN, 0.01, 2)},
		{"wide", dataset.Beta(r.Stream(streamWide), bigN, 0.5, 3)},
		{"joint", dataset.Beta(r.Stream(streamJoint), jointN, 0.01, 2)},
	}
	for _, g := range gens {
		t, body, err := tableFrom(g.name, g.d, 0)
		if err != nil {
			return err
		}
		w.tables = append(w.tables, t)
		w.bodies = append(w.bodies, body)
		w.udfs = append(w.udfs, &oracleUDF{t: t})
	}
	// Every text's answer size and label count hold steady from seed to
	// seed (within about ±25%); recall targets of 90% and up on these
	// tables do not (README.md, "Why these texts").
	night, beta, wide, joint := w.tables[0], w.tables[1], w.tables[2], w.tables[3]
	w.texts = []*queryText{
		newText(0, night, srcProxy, kindPT, 1000, 0, 90),
		newText(1, night, srcProxy, kindPT, 2000, 0, 95),
		newText(2, night, srcFused, kindPT, 1000, 0, 90),
		newText(3, beta, srcProxy, kindRT, 2000, 80, 0),
		newText(4, beta, srcProxy, kindPT, 1500, 0, 95),
		newText(5, wide, srcProxy, kindRT, 2000, 70, 0),
		newText(6, wide, srcProxy, kindRT, 1000, 60, 0),
		newText(7, joint, srcProxy, kindJT, 0, 50, 80),
	}
	return nil
}

func (w *warmSelect) setup(b *bench) error {
	p, err := startServer(b.seed, server.Options{}, b.handlerWrap())
	if err != nil {
		return err
	}
	w.p = p
	cl := newClient(p.base)
	defer cl.close()
	for i, t := range w.tables {
		if err := cl.upload("/v1/datasets/"+t.name, w.bodies[i], -1); err != nil {
			return err
		}
		register(p.srv, t, w.udfs[i])
	}
	for _, q := range w.texts {
		if err := b.warmUp(p, cl, q.sql); err != nil {
			return fmt.Errorf("warm-up %q: %w", q.sql, err)
		}
	}
	return nil
}

func (w *warmSelect) cycle(c int) []opSpec {
	specs := make([]opSpec, 0, warmRepeats*len(w.texts))
	for _, q := range w.texts {
		for j := 0; j < warmRepeats; j++ {
			specs = append(specs, opSpec{key: q.id, text: q, include: j == 0, batch: -1})
		}
	}
	return shuffled(w.seed, c, specs)
}

func (w *warmSelect) do(b *bench, cl *client, o *opRecord) error {
	return queryOp(b, cl, o, w.udfs)
}

// queryOp runs o's query and records the answer; with include_indices
// the id list is checked while it is read.
func queryOp(b *bench, cl *client, o *opRecord, udfs []*oracleUDF) error {
	q := o.text
	o.n = q.table.len()
	var before int64
	for _, u := range udfs {
		before += u.calls.Load()
	}
	var scan *idScan
	if o.include {
		scan = newIDScan(q.table.column(q.src)[:o.n], q.table.labels[:o.n], q.kind == kindJT)
	}
	ans, err := cl.query(queryBody(q.sql, o.include), scan, b.opTag(o))
	if err != nil {
		return err
	}
	o.ans = ans
	var after int64
	for _, u := range udfs {
		after += u.calls.Load()
	}
	o.udfCalls = after - before
	return nil
}

// ---- oracle-bound ----

// oracleBound is the paper's regime: a 200µs-per-call oracle dominates
// wall time, and every op of a cycle is a distinct text whose labels
// overlap the others' only in part.
type oracleBound struct {
	inprocBase
	seed  uint64
	night *table
	body  []byte
	udf   *oracleUDF
	texts []*queryText
	warm  *queryText
}

func (w *oracleBound) clients() int          { return 2 }
func (w *oracleBound) oracles() []*oracleUDF { return []*oracleUDF{w.udf} }
func (w *oracleBound) persistDir() string    { return "" }
func (w *oracleBound) teardown(*bench) error { return w.teardownServer() }

func (w *oracleBound) generate(b *bench) error {
	w.seed = b.seed
	t, body, err := tableFrom("night", dataset.NightStreetSimN(randx.New(b.seed).Stream(streamNight), bigN), 0)
	if err != nil {
		return err
	}
	w.night, w.body = t, body
	w.udf = &oracleUDF{t: t, sleep: oracleSleep}
	// Targets rotate and the budget steps, so all texts differ.
	kinds := []struct {
		kind      targetKind
		rec, prec int
	}{{kindRT, 90, 0}, {kindRT, 95, 0}, {kindPT, 0, 90}, {kindPT, 0, 95}}
	for i := 0; i < boundTexts; i++ {
		k := kinds[i%len(kinds)]
		w.texts = append(w.texts, newText(i, t, srcProxy, k.kind, 1000+40*(i/len(kinds)), k.rec, k.prec))
	}
	w.warm = newText(-1, t, srcProxy, kindRT, 200, 90, 0)
	return nil
}

func (w *oracleBound) setup(b *bench) error {
	p, err := startServer(b.seed, server.Options{OracleParallelism: oraclePar}, b.handlerWrap())
	if err != nil {
		return err
	}
	w.p = p
	cl := newClient(p.base)
	defer cl.close()
	if err := cl.upload("/v1/datasets/night", w.body, -1); err != nil {
		return err
	}
	register(p.srv, w.night, w.udf)
	// Build the index with a text outside the cycle, then start cold.
	if err := b.warmUp(p, cl, w.warm.sql); err != nil {
		return err
	}
	return w.endCycle(b)
}

func (w *oracleBound) cycle(c int) []opSpec {
	specs := make([]opSpec, len(w.texts))
	for i, q := range w.texts {
		specs[i] = opSpec{key: q.id, text: q, batch: -1}
	}
	return shuffled(w.seed, c, specs)
}

// endCycle empties the label store by re-registering the oracle, so
// every cycle starts as cold as the first.
func (w *oracleBound) endCycle(*bench) error {
	w.p.srv.Engine().RegisterOracle("night_oracle", w.udf.call)
	return nil
}

func (w *oracleBound) do(b *bench, cl *client, o *opRecord) error {
	return queryOp(b, cl, o, []*oracleUDF{w.udf})
}

// ---- ingest-durable ----

// ingestDurable is the write path: append a batch, then run the query
// that first reads the grown table, against a persisted server whose
// label WAL fsyncs every record.
type ingestDurable struct {
	inprocBase
	seed    uint64
	night   *table
	base    []byte
	batches []ingestBatchData
	texts   [2]*queryText
	udf     *oracleUDF
	dir     string
	setups  int
}

type ingestBatchData struct {
	scores []float64
	labels []bool
	body   []byte
}

func (w *ingestDurable) clients() int          { return 1 }
func (w *ingestDurable) fixedOps() bool        { return true }
func (w *ingestDurable) oracles() []*oracleUDF { return []*oracleUDF{w.udf} }
func (w *ingestDurable) persistDir() string    { return w.dir }
func (w *ingestDurable) persistedRecords() int { return w.night.len() }
func (w *ingestDurable) endCycle(*bench) error { return nil }

func (w *ingestDurable) generate(b *bench) error {
	w.seed = b.seed
	nOps := max(minOps, int(float64(ingestOpsPerS)*b.seconds+0.5))
	r := randx.New(b.seed)
	t, body, err := tableFrom("night", dataset.NightStreetSimN(r.Stream(streamNight), bigN), nOps*ingestBatch)
	if err != nil {
		return err
	}
	w.night, w.base = t, body
	w.udf = &oracleUDF{t: t}
	for k := 0; k < nOps; k++ {
		scores, labels, body, err := columns(dataset.NightStreetSimN(r.Stream(streamBatch+uint64(k)), ingestBatch))
		if err != nil {
			return err
		}
		w.batches = append(w.batches, ingestBatchData{scores, labels, body})
	}
	w.texts = [2]*queryText{
		newText(0, t, srcProxy, kindPT, 500, 0, 90),
		newText(1, t, srcFused, kindPT, 500, 0, 90),
	}
	return nil
}

func (w *ingestDurable) setup(b *bench) error {
	w.setups++
	w.dir = filepath.Join(b.workDir, fmt.Sprintf("ingest-%d", w.setups))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	p, err := startServer(b.seed, server.Options{
		PersistDir:   w.dir,
		LabelWALPath: filepath.Join(w.dir, "labels.wal"),
	}, b.handlerWrap())
	if err != nil {
		return err
	}
	w.p = p
	cl := newClient(p.base)
	defer cl.close()
	if err := cl.upload("/v1/datasets/night", w.base, -1); err != nil {
		return err
	}
	register(p.srv, w.night, w.udf)
	for _, q := range w.texts {
		if err := b.warmUp(p, cl, q.sql); err != nil {
			return fmt.Errorf("warm-up %q: %w", q.sql, err)
		}
	}
	return nil
}

func (w *ingestDurable) teardown(*bench) error {
	err := w.teardownServer()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *ingestDurable) cycle(c int) []opSpec {
	if c >= len(w.batches) {
		return nil
	}
	// Every op queries a different table length: no answer repeats.
	return []opSpec{{key: 100 + c, text: w.texts[c%2], batch: c}}
}

func (w *ingestDurable) do(b *bench, cl *client, o *opRecord) error {
	bt := w.batches[o.batch]
	w.night.extend(bt.scores, bt.labels)
	if err := cl.upload("/v1/datasets/night/append", bt.body, b.opTag(o)); err != nil {
		return err
	}
	return queryOp(b, cl, o, []*oracleUDF{w.udf})
}

// ---- restart-recover ----

// restartRecover boots the repository's supg-server binary on a
// persisted directory, one child process per op, and times spawn to
// first answer.
type restartRecover struct {
	seed   uint64
	night  *table
	body   []byte
	text   *queryText   // the op's fixed query
	extra  []*queryText // set-up queries that fill the WAL and build the fused index
	dir    string
	setups int
}

func (w *restartRecover) clients() int          { return 1 }
func (w *restartRecover) persistDir() string    { return w.dir }
func (w *restartRecover) persistedRecords() int { return w.night.len() }
func (w *restartRecover) endCycle(*bench) error { return nil }
func (w *restartRecover) newClient() *client    { return nil }

func (w *restartRecover) generate(b *bench) error {
	w.seed = b.seed
	t, body, err := tableFrom("night", dataset.NightStreetSimN(randx.New(b.seed).Stream(streamNight), bigN), 0)
	if err != nil {
		return err
	}
	w.night, w.body = t, body
	w.text = newText(0, t, srcProxy, kindPT, 1000, 0, 90)
	w.extra = []*queryText{
		newText(1, t, srcFused, kindRT, 1000, 90, 0),
		newText(2, t, srcProxy, kindPT, 2000, 0, 90),
		newText(3, t, srcProxy, kindRT, 2000, 95, 0),
	}
	return nil
}

// setup builds the persisted directory through an in-process server
// and closes it. The WAL syncs in batches here: set-up durability does
// not matter, and the log's content is the same.
func (w *restartRecover) setup(b *bench) error {
	w.setups++
	w.dir = filepath.Join(b.workDir, fmt.Sprintf("restart-%d", w.setups))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	p, err := startServer(b.seed, server.Options{
		PersistDir:        w.dir,
		LabelWALPath:      filepath.Join(w.dir, "labels.wal"),
		LabelWALSyncEvery: 4096,
	}, nil)
	if err != nil {
		return err
	}
	cl := newClient(p.base)
	defer cl.close()
	err = cl.upload("/v1/datasets/night", w.body, -1)
	if err == nil {
		register(p.srv, w.night, nil)
		for _, q := range append([]*queryText{w.text}, w.extra...) {
			if _, err = cl.query(queryBody(q.sql, false), nil, -1); err != nil {
				break
			}
		}
	}
	if cerr := p.close(); err == nil {
		err = cerr
	}
	return err
}

func (w *restartRecover) teardown(*bench) error { return os.RemoveAll(w.dir) }

func (w *restartRecover) cycle(int) []opSpec {
	return []opSpec{{key: 0, text: w.text, batch: -1}}
}

func (w *restartRecover) do(b *bench, _ *client, o *opRecord) error {
	o.n = w.night.len()
	bt, err := startBoot(b.serverBin, w.dir, b.seed, "night")
	if err != nil {
		return err
	}
	ans, err := bt.firstAnswer(queryBody(w.text.sql, false), nil, time.Now().Add(20*time.Second))
	if err == nil {
		o.ans = ans
		if b.traced {
			var s metrics.CounterSnapshot
			s, err = bt.client.stats()
			o.boot = &s
		}
	}
	if err == nil {
		o.childHWM, err = vmHWMBytes(bt.pid())
	}
	if err == nil {
		o.childIO, _ = writeBytes(bt.pid()) // diagnostic; 0 where unreadable
	}
	cpu, serr := bt.stop()
	o.childCPU = cpu
	if err == nil {
		err = serr
	}
	return err
}

// compile-time interface checks.
var (
	_ workload = (*warmSelect)(nil)
	_ workload = (*oracleBound)(nil)
	_ workload = (*ingestDurable)(nil)
	_ workload = (*restartRecover)(nil)
)
