package engine

import (
	"sort"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/query"
	"supg/internal/storage"
)

// The durable storage tier (Options.PersistDir) hooks into the engine
// at six points:
//
//   - Open stages everything the storage tier recovered: datasets wait
//     in e.staged, and index records, whose files the storage tier has
//     not read yet, in e.stagedIx, until the registrations they depend
//     on arrive. An index is loaded and checked by the first query that
//     adopts it; one that fails the check is dropped durably and that
//     query rebuilds it from the proxies.
//   - Registration either ADOPTS staged state (first registration of a
//     recovered name with identical content — loading, not
//     superseding, mirroring the label store's WAL semantics) or
//     durably drops and rewrites it.
//   - AppendTable persists only the appended records, as a new chunk of
//     the table's stored dataset; the next flush of each grown index
//     likewise writes one column chunk for its new rows.
//   - tableIndex flushes a freshly built index after publishing it,
//     outside the engine lock; a per-table epoch makes a flush that
//     raced an invalidation abandon itself instead of resurrecting
//     tombstoned state.
//   - Every invalidation site (table/proxy/oracle re-registration,
//     append-driven entry drops) tombstones the corresponding durable
//     record, so a restart can never resurrect state the process
//     dropped.
//   - Close checkpoints the cached IS sampling mixtures of every built
//     index before the store closes (checkpointMixtures). A recovered
//     index carries them as lazy loaders, so the first IS query after a
//     restart adopts the stored alias table instead of rebuilding it;
//     the staged index brings them along when it is adopted. Nothing is
//     written on the query or append path: an index grown since the
//     checkpoint, or any index after a crash, rebuilds its mixture on
//     first use as before.
//
// All staged state is consumed at most once: a staged index either
// becomes the cache entry for its (table, source) — whole if lengths
// match, as the base of an append chain if the table grew — or is
// durably dropped the first time it is found unusable, by its
// provenance and length at adoption or by its files at first use.

// stagedTable is a recovered dataset awaiting its first registration.
type stagedTable struct {
	ds  *dataset.Dataset
	crc uint32
}

// stagedIndex is a recovered index record awaiting the first query of
// its (table, source) after the member registrations return. Its files
// wait unread: load maps and checks them, once (storage's
// RecoveredIndex.Load).
type stagedIndex struct {
	n           int // records the persisted index covers
	load        func() (*index.ScoreIndex, error)
	proxies     []string
	fusion      query.FusionKind
	calibOracle string
}

// matches reports whether the staged index's provenance is exactly the
// plan source's (defense in depth: the cache key already encodes it).
func (si *stagedIndex) matches(src query.ScoreSource) bool {
	if si.fusion != src.Fusion || len(si.proxies) != len(src.Proxies) {
		return false
	}
	for i, p := range si.proxies {
		if src.Proxies[i] != p {
			return false
		}
	}
	return true
}

// openStorage opens the persistence directory and stages its recovered
// state. Called from Open before the Engine is published.
func (e *Engine) openStorage(opts Options) error {
	if opts.PersistDir == "" {
		return nil
	}
	store, err := storage.Open(storage.Options{
		Dir:   opts.PersistDir,
		Index: e.ixOpts,
	})
	if err != nil {
		return err
	}
	e.store = store
	for _, rt := range store.RecoveredTables() {
		e.staged[rt.Name] = stagedTable{ds: rt.Dataset, crc: rt.CRC}
	}
	for _, ri := range store.RecoveredIndexes() {
		fusion, ok := fusionFromString(ri.Fusion)
		if !ok {
			store.DropIndex(ri.Table, ri.Source)
			continue
		}
		e.stagedIx[indexKey{table: ri.Table, source: ri.Source}] = &stagedIndex{
			n:           ri.Len,
			load:        ri.Load,
			proxies:     ri.Proxies,
			fusion:      fusion,
			calibOracle: ri.CalibOracle,
		}
	}
	return nil
}

// fusionFromString inverts query.FusionKind.String.
func fusionFromString(s string) (query.FusionKind, bool) {
	for _, k := range []query.FusionKind{query.FusionNone, query.FusionMean, query.FusionMax, query.FusionLogistic} {
		if k.String() == s {
			return k, true
		}
	}
	return query.FusionNone, false
}

// persistTableLocked records a table registration durably. The first
// registration of a recovered name with identical content (same
// dataset pointer, or same binary CRC) adopts the on-disk state — the
// files already describe exactly this dataset, and the staged indexes
// stay eligible. Anything else — a RE-registration, or different
// content — durably drops the old state (dataset, indexes, staged
// recoveries) and persists the new dataset. Callers hold e.mu.
func (e *Engine) persistTableLocked(name string, d *dataset.Dataset, existed bool) {
	if e.store == nil {
		return
	}
	if !existed {
		if st, ok := e.staged[name]; ok && (st.ds == d || storage.DatasetCRC(d) == st.crc) {
			delete(e.staged, name)
			return
		}
	}
	e.dropStagedTableLocked(name)
	e.store.DropTable(name)
	e.store.SaveDataset(name, d) // best-effort: a failed write degrades to rebuild-on-boot
}

// dropStagedTableLocked discards staged recoveries of a table (the
// durable records go with store.DropTable). Callers hold e.mu.
func (e *Engine) dropStagedTableLocked(name string) {
	delete(e.staged, name)
	for k := range e.stagedIx {
		if k.table == name {
			delete(e.stagedIx, k)
		}
	}
}

// dropIndexDurably tombstones one (table, source) index record and
// advances the table's epoch, so neither a restart nor an in-flight
// flush can resurrect it. Callers hold e.mu.
func (e *Engine) dropIndexDurably(k indexKey) {
	if e.store != nil {
		e.store.DropIndex(k.table, k.source)
	}
}

// persistAppend records an append durably: the records [base,
// d.Len()) of the grown dataset d become one new chunk of the table's
// stored dataset (a whole write if the store's copy is not exactly base
// records long). Index records are left alone: lineages survive appends
// and flush their extended form after the next build. Callers hold
// e.mu.
func (e *Engine) persistAppend(name string, d *dataset.Dataset, base int) {
	if e.store != nil {
		e.store.AppendDataset(name, d, base) // best-effort, like persistTableLocked
	}
}

// storeEpoch snapshots the table's invalidation epoch for a new cache
// entry (0 when persistence is off).
func (e *Engine) storeEpoch(table string) uint64 {
	if e.store == nil {
		return 0
	}
	return e.store.Epoch(table)
}

// adoptStagedLocked consumes a staged recovered index for key, if one
// exists and is usable against the current table and source, and
// returns the build closure that adopts it, or nil to build from
// scratch. The closure runs outside e.mu and loads the index, which
// checks its files on this first use; if the load fails, it runs
// fresh, the build the entry would otherwise have had, over the same
// snapshot of registrations. Callers hold e.mu; fns are the
// snapshotted member proxies of the source.
func (e *Engine) adoptStagedLocked(key indexKey, src query.ScoreSource, table *dataset.Dataset, fns []ProxyUDF, fresh func() (built, error)) func() (built, error) {
	if e.store == nil {
		return nil
	}
	si, ok := e.stagedIx[key]
	if !ok {
		return nil
	}
	delete(e.stagedIx, key) // consumed either way
	n := table.Len()
	// A table shorter than the index is not the one it was built over.
	// A longer one grew by appends (a larger upload adopted by CRC is
	// impossible) since the flush: calibrated fusions must recalibrate
	// against the grown population, so they drop too.
	if !si.matches(src) || si.n > n || (si.n < n && src.Fusion.Calibrated()) {
		e.dropIndexDurably(key)
		return nil
	}
	return func() (built, error) {
		ix, err := si.load()
		if err != nil {
			// The files failed their check, and the store dropped the
			// record durably, or the record was dropped meanwhile:
			// never serve it.
			return fresh()
		}
		// Whole-index adoption: zero proxy calls, zero sorts — the
		// verified on-disk permutation answers queries byte-identically.
		b := built{ix: ix, recovered: true}
		if ix.Len() == n {
			return b, nil
		}
		// Label-free sources extend incrementally: score only the tail
		// and append it as fresh segments, like an in-process append.
		return e.extendBuilt(b, key.source, fns, src.Fusion, ix.Len(), n)
	}
}

// persistIndex flushes a just-built index to the durable store. Runs
// without e.mu (column and segment writes are the expensive part); the
// epoch captured at entry creation makes a flush that lost a race with
// an invalidation abandon itself (ErrSuperseded) instead of
// resurrecting dropped state. An entry that adopted its persisted index
// whole skips the flush: its on-disk form is already exact. One whose
// persisted index failed its check rebuilt it, and flushes it.
func (e *Engine) persistIndex(key indexKey, entry *indexEntry) {
	if e.store == nil || entry.err != nil || entry.res.ix == nil {
		return
	}
	if entry.res.recovered && entry.res.proxyCalls == 0 {
		return
	}
	meta := storage.IndexMeta{
		Table:       key.table,
		Source:      key.source,
		Fusion:      entry.fusion.String(),
		CalibOracle: entry.calibOracle,
		Proxies:     entry.proxies,
	}
	// Best-effort: ErrSuperseded means an invalidation won the race
	// (correct outcome), any other failure just costs a rebuild on the
	// next boot.
	e.store.SaveIndex(meta, entry.res.ix, entry.epoch)
}

// checkpointMixtures writes the cached sampling mixtures of every
// built index to the durable store, best-effort: a failed or skipped
// write only costs a rebuild on the next boot. Mixtures already on disk
// for the same column are not rewritten, so a restarted process that
// adopted its mixtures shuts down without writing them again.
func (e *Engine) checkpointMixtures() {
	if e.store == nil {
		return
	}
	type target struct {
		key indexKey
		ix  *index.ScoreIndex
	}
	var all []target
	e.mu.RLock()
	for k, en := range e.indexes {
		if ix := en.builtIndex(); ix != nil {
			all = append(all, target{k, ix})
		}
	}
	e.mu.RUnlock()
	for _, t := range all {
		e.store.SaveMixtures(t.key.table, t.key.source, t.ix)
	}
}

// RecoveredDatasets returns the recovered datasets still awaiting
// their first registration, sorted by name. Registering one of them
// (same pointer or identical content) adopts the on-disk state instead
// of rewriting it — the hook servers use to re-offer recovered tables
// automatically.
func (e *Engine) RecoveredDatasets() []*dataset.Dataset {
	if e == nil || e.store == nil {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*dataset.Dataset, 0, len(e.staged))
	for _, st := range e.staged {
		out = append(out, st.ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Storage exposes the engine's durable store (nil when persistence is
// off). Its Stats report what Open recovered and staged — tables,
// indexes, segments, mixtures, elapsed time — and the mapped bytes and
// degraded entries so far, for the server's boot banner and tests.
func (e *Engine) Storage() *storage.Store { return e.store }
