// Package lsm implements BlendHouse's LSM-style table engine over the
// blob store (paper §II-A, §III-B): tables are collections of sorted,
// immutable columnar segments; ingestion writes fresh L0 segments and
// builds a per-segment vector index in a pipelined fashion; updates
// are multi-version (new segment + delete bitmap over the old rows);
// background compaction merges small segments into larger ones and
// rebuilds their indexes as a side effect; and data management
// supports both scalar partitioning (PARTITION BY) and semantic
// similarity-based partitioning (CLUSTER BY ... INTO n BUCKETS).
package lsm

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
	"blendhouse/internal/wal"
)

// Options configures a table at creation. The manifest stores them
// as they are (the json names are its format); a key an older build
// wrote that no field names any more (pipelined_build,
// tune_on_compaction) is ignored when the manifest is read.
type Options struct {
	Name   string          `json:"name"`
	Schema *storage.Schema `json:"schema"`

	// Vector index definition (the dialect's INDEX ... TYPE clause).
	// IndexColumn empty means no ANN index.
	IndexColumn string            `json:"index_column,omitempty"`
	IndexType   index.Type        `json:"index_type,omitempty"`
	IndexParams index.BuildParams `json:"index_params"`
	// AutoIndex enables rule-based index selection per segment size
	// (paper §III-B "Auto index"): a segment under
	// autoindex.MinIndexRows rows gets an exact flat index, a larger one
	// IndexType with parameters sized to its row count.
	AutoIndex bool `json:"auto_index"`
	// indexEverySegment keeps IndexType on segments of every size under
	// AutoIndex. Only package tests set it: the flush golden pins the
	// bytes of small graph segments. Being unexported, it never reaches
	// the manifest.
	indexEverySegment bool

	// PartitionBy lists scalar partition columns.
	PartitionBy []string `json:"partition_by,omitempty"`
	// ClusterBuckets > 0 enables semantic partitioning into that many
	// k-means buckets over the vector column.
	ClusterBuckets int `json:"cluster_buckets"`

	// SegmentRows caps rows per ingested segment (default 8192).
	SegmentRows int `json:"segment_rows"`
	// BlockRows is the column granule size (default storage.DefaultBlockRows).
	BlockRows int `json:"block_rows"`

	Seed int64 `json:"seed"`
}

func (o Options) withDefaults() Options {
	if o.SegmentRows <= 0 {
		o.SegmentRows = 8192
	}
	if o.BlockRows <= 0 {
		o.BlockRows = storage.DefaultBlockRows
	}
	return o
}

// Table is a live LSM table handle. All mutating operations are
// serialized internally; a read acquires one immutable Version.
type Table struct {
	opts  Options
	store storage.BlobStore

	mu        sync.RWMutex
	cur       *Version    // the current Version; replaced by publish
	centroids *vec.Matrix // semantic bucket centroids; nil until trained
	nextSeg   int64
	hist      map[string]*Histogram // per-column histograms for the CBO
	onRetire  []func(seg string)

	// dropped is set by Drop, which deletes the table's blobs itself.
	dropped atomic.Bool

	// Real-time write path (zero when the WAL is disabled): memGen
	// numbers memtables; flushedLSN is the highest WAL LSN whose
	// effects are fully in segments — both guarded by t.mu.
	memGen     int64
	flushedLSN int64

	// walKeys is the wal/ listing Open recovered from, until the first
	// EnableWAL takes it; nil when there is none. Guarded by t.mu.
	walKeys []string

	// walPins counts active PinWALTruncate holders (backups copying
	// the WAL tail); while nonzero the flusher skips TruncateBelow so
	// no tail blob vanishes mid-copy. Guarded by t.mu.
	walPins int

	// walRT holds the WAL runtime (log + flusher); atomic so the hot
	// insert path can branch without taking t.mu.
	walRT atomic.Pointer[walState]

	// dmlMu serializes DELETE application against memtable flushes so
	// a delete can never slip between a flush's snapshot and its
	// segment registration. Lock order: dmlMu before t.mu.
	dmlMu sync.Mutex

	// manifestMu serializes manifest writers; the blob Put happens
	// outside t.mu so readers are never blocked on remote I/O.
	manifestMu sync.Mutex
}

// manifest is the durable catalog blob.
type manifest struct {
	Options   Options               `json:"options"`
	Segments  []string              `json:"segments"`
	NextSeg   int64                 `json:"next_seg"`
	Centroids []float32             `json:"centroids,omitempty"`
	CentDim   int                   `json:"cent_dim,omitempty"`
	Hist      map[string]*Histogram `json:"histograms,omitempty"`

	// FlushedLSN is the recovery watermark: every WAL record with
	// LSN <= FlushedLSN is fully reflected in Segments; records above
	// it are replayed by Open. Updated atomically with Segments (one
	// manifest Put per flush), and only then is the WAL truncated.
	FlushedLSN int64 `json:"flushed_lsn,omitempty"`
}

func manifestKey(table string) string { return "tables/" + table + "/manifest.json" }

// Create initializes a new table. It fails if the table already
// exists.
func Create(store storage.BlobStore, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	if opts.Name == "" {
		return nil, fmt.Errorf("lsm: table needs a name")
	}
	if err := opts.Schema.Validate(); err != nil {
		return nil, err
	}
	if opts.IndexColumn != "" {
		i, def := opts.Schema.Col(opts.IndexColumn)
		if i < 0 || def.Type != storage.VectorType {
			return nil, fmt.Errorf("lsm: index column %q is not a vector column", opts.IndexColumn)
		}
		if opts.IndexParams.Dim == 0 {
			opts.IndexParams.Dim = def.Dim
		}
		if opts.IndexParams.Dim != def.Dim {
			return nil, fmt.Errorf("lsm: index DIM %d != column dim %d", opts.IndexParams.Dim, def.Dim)
		}
	}
	for _, pc := range opts.PartitionBy {
		if i, _ := opts.Schema.Col(pc); i < 0 {
			return nil, fmt.Errorf("lsm: partition column %q not in schema", pc)
		}
	}
	if opts.ClusterBuckets > 0 && opts.Schema.VectorColumn() == nil {
		return nil, fmt.Errorf("lsm: CLUSTER BY requires a vector column")
	}
	if _, err := store.Get(manifestKey(opts.Name)); err == nil {
		return nil, fmt.Errorf("lsm: table %q already exists", opts.Name)
	} else if !storage.IsNotFound(err) {
		return nil, err
	}
	t := newTable(store, opts)
	if err := t.saveManifest(); err != nil {
		return nil, err
	}
	return t, nil
}

// newTable returns a handle whose current Version is empty.
func newTable(store storage.BlobStore, opts Options) *Table {
	t := &Table{opts: opts, store: store, hist: map[string]*Histogram{}}
	t.cur = &Version{t: t}
	t.cur.pins.Store(1)
	return t
}

// openFanOut bounds the reads Open has in flight at once.
const openFanOut = 32

// Open loads an existing table from its manifest. Its reads go out in
// a fixed number of round trips whatever the segment count: the
// manifest GET overlaps the segments/ and wal/ listings, then every
// segment's meta.json and delete bitmap is read at once, at most
// openFanOut in flight (openSegments).
func Open(store storage.BlobStore, name string) (*Table, error) {
	var (
		blob                []byte
		segKeys, walKeys    []string
		err, segErr, walErr error
	)
	runAll(openFanOut,
		func() { blob, err = store.Get(manifestKey(name)) },
		// One List names every delete bitmap the table has, so a segment
		// enters the first Version with its bitmap and none is probed.
		func() { segKeys, segErr = store.List(segmentsPrefix(name)) }, // sorted
		func() { walKeys, walErr = store.List(wal.Prefix(name)) })
	if err != nil {
		return nil, fmt.Errorf("lsm: opening table %q: %w", name, err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("lsm: parsing manifest of %q: %w", name, err)
	}
	t := newTable(store, m.Options)
	t.nextSeg = m.NextSeg
	if m.Hist != nil {
		t.hist = m.Hist
	}
	if m.CentDim > 0 {
		t.centroids = &vec.Matrix{Dim: m.CentDim, Data: m.Centroids}
	}
	if segErr != nil {
		return nil, fmt.Errorf("lsm: listing segments of %q: %w", name, segErr)
	}
	segs, err := t.openSegments(m.Segments, segKeys)
	if err != nil {
		return nil, err
	}
	t.publish(func(next *Version) { next.Segments = segs })
	t.flushedLSN = m.FlushedLSN
	// Crash recovery: WAL records past the flushed watermark are the
	// acknowledged writes a crash interrupted — fold them into
	// segments before the table goes live. Runs even when the caller
	// won't re-enable the WAL, so no acknowledged write is ever
	// stranded in an unread log.
	if walErr == nil {
		walErr = t.replayWAL(walKeys)
	}
	if walErr != nil {
		return nil, fmt.Errorf("lsm: recovering table %q: %w", name, walErr)
	}
	return t, nil
}

// openSegments reads the named segments' meta.json and the delete
// bitmaps keys (the segments/ listing) holds, all at once with at most
// openFanOut in flight, and returns the segments in names' order. A
// failure is the first failing segment's in that order — the error a
// serial read would stop at — and no read outlives the call.
func (t *Table) openSegments(names, keys []string) ([]*Segment, error) {
	type read struct {
		meta    *storage.SegmentMeta
		metaErr error
		hasDel  bool
		delBlob []byte
		delErr  error
	}
	reads := make([]read, len(names))
	var jobs []func()
	for i, seg := range names {
		r := &reads[i]
		jobs = append(jobs, func() { r.meta, r.metaErr = storage.ReadMeta(t.store, t.opts.Name, seg) })
		key := storage.DeleteBitmapKey(t.opts.Name, seg)
		if _, ok := slices.BinarySearch(keys, key); ok {
			r.hasDel = true
			jobs = append(jobs, func() { r.delBlob, r.delErr = t.store.Get(key) })
		}
	}
	runAll(openFanOut, jobs...)
	segs := make([]*Segment, len(names))
	for i, seg := range names {
		r := &reads[i]
		if r.metaErr != nil {
			return nil, fmt.Errorf("lsm: loading segment %s: %w", seg, r.metaErr)
		}
		var del *bitset.Bitset
		if r.hasDel {
			if r.delErr != nil {
				return nil, fmt.Errorf("lsm: loading delete bitmap of %s: %w", seg, r.delErr)
			}
			del = new(bitset.Bitset)
			if err := del.UnmarshalBinary(r.delBlob); err != nil {
				return nil, fmt.Errorf("lsm: corrupt delete bitmap of %s: %w", seg, err)
			}
		}
		segs[i] = t.newSegment(r.meta, del)
	}
	return segs, nil
}

// runAll runs jobs on at most n goroutines and returns when every one
// has finished.
func runAll(n int, jobs ...func()) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range min(n, len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := next.Add(1) - 1; j < int64(len(jobs)); j = next.Add(1) - 1 {
				jobs[j]()
			}
		}()
	}
	wg.Wait()
}

// replayWAL applies WAL records with LSN > flushedLSN directly to
// segments: consecutive inserts coalesce into one ingest batch, a
// delete cuts the run (replay must preserve LSN order), and the
// manifest + WAL are brought back in sync afterwards. Segment blobs
// are written and registered in memory as the log replays, but the
// manifest — the new segments AND the advanced watermark together —
// is saved exactly once at the end, mirroring flushOnce's atomic
// swap: a crash mid-recovery leaves the old manifest untouched, so
// the next Open replays the same records onto the same deterministic
// segment names instead of registering the rows twice.
//
// keys is the wal/ listing Open took; it is kept for the first
// EnableWAL, which positions its log from it instead of listing again.
func (t *Table) replayWAL(keys []string) error {
	log, pending, err := wal.OpenListed(t.store, t.opts.Name, t.opts.Schema, keys, t.flushedLSN)
	if err != nil {
		return err
	}
	t.walKeys = append(make([]string, 0, len(keys)), keys...) // non-nil: listed
	if len(pending) == 0 {
		return nil
	}
	var buf *storage.RowBatch
	flushBuf := func() error {
		if buf == nil || buf.Len() == 0 {
			buf = nil
			return nil
		}
		b := buf
		buf = nil
		metas, err := t.writeBatchSegments(b)
		if err != nil {
			return err
		}
		t.publish(func(next *Version) { t.addLocked(next, metas, b) })
		return nil
	}
	for _, rec := range pending {
		switch rec.Type {
		case wal.RecInsert:
			if buf == nil {
				buf = storage.NewRowBatch(t.opts.Schema)
			}
			for i := 0; i < rec.Batch.Len(); i++ {
				buf.AppendRow(rec.Batch, i)
			}
		case wal.RecDelete:
			if err := flushBuf(); err != nil {
				return err
			}
			if _, err := t.deleteFromSegments(rec.DeleteCol, rec.DeleteKeys); err != nil {
				return err
			}
		default:
			return fmt.Errorf("lsm: replaying unknown WAL record type %d", rec.Type)
		}
	}
	if err := flushBuf(); err != nil {
		return err
	}
	last := pending[len(pending)-1].LSN
	t.mu.Lock()
	t.flushedLSN = last
	t.mu.Unlock()
	if err := t.saveManifest(); err != nil {
		return err
	}
	return log.TruncateBelow(last)
}

// manifestBlobLocked marshals the catalog; caller holds t.mu.
func (t *Table) manifestBlobLocked() ([]byte, error) {
	m := manifest{
		Options:    t.opts,
		NextSeg:    t.nextSeg,
		Hist:       t.hist,
		FlushedLSN: t.flushedLSN,
	}
	for _, s := range t.cur.Segments {
		m.Segments = append(m.Segments, s.Meta.Name)
	}
	if t.centroids != nil {
		m.Centroids = t.centroids.Data
		m.CentDim = t.centroids.Dim
	}
	return json.Marshal(&m)
}

// saveManifest persists the catalog. The snapshot happens under a
// read lock but the blob Put does not: on the latency-modeled
// RemoteStore that write is the slowest part, and holding t.mu across
// it would serialize every concurrent reader against remote I/O.
// manifestMu keeps writers ordered — each Put carries a snapshot at
// least as new as the previous one's.
func (t *Table) saveManifest() error {
	t.manifestMu.Lock()
	defer t.manifestMu.Unlock()
	t.mu.RLock()
	blob, err := t.manifestBlobLocked()
	t.mu.RUnlock()
	if err != nil {
		return err
	}
	return t.store.Put(manifestKey(t.opts.Name), blob)
}

// Name returns the table name.
func (t *Table) Name() string { return t.opts.Name }

// Schema returns the table schema.
func (t *Table) Schema() *storage.Schema { return t.opts.Schema }

// Options returns a copy of the table options.
func (t *Table) Options() Options { return t.opts }

// Store returns the backing blob store.
func (t *Table) Store() storage.BlobStore { return t.store }

// Segments lists the live segments' metadata, sorted by name.
func (t *Table) Segments() []*storage.SegmentMeta {
	segs := t.current().Segments
	out := make([]*storage.SegmentMeta, len(segs))
	for i, s := range segs {
		out[i] = s.Meta
	}
	return out
}

// SegmentCount returns the number of live segments.
func (t *Table) SegmentCount() int { return len(t.current().Segments) }

// Rows returns the live row count (total minus deleted).
func (t *Table) Rows() int {
	n := 0
	for _, s := range t.current().Segments {
		n += s.Meta.Rows - s.deletedRows()
	}
	return n
}

// Centroids returns the semantic bucket centroids (nil before the
// first clustered ingest).
func (t *Table) Centroids() *vec.Matrix {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.centroids
}

// addLocked puts freshly written segments (no row deleted yet) into
// next and folds their rows into the table histograms. Caller holds
// t.mu: it is a publish edit.
func (t *Table) addLocked(next *Version, metas []*storage.SegmentMeta, rows *storage.RowBatch) {
	for _, m := range metas {
		next.Segments = append(next.Segments, t.newSegment(m, nil))
	}
	if rows.Len() > 0 {
		t.updateHistogramsLocked(rows)
	}
}

// OpenIndex loads a live segment's vector index from the store,
// bypassing any cache. The Version that names the segment stays pinned
// until the load is done, so a compaction that retires the segment
// meanwhile cannot delete the blob under the read.
func (t *Table) OpenIndex(seg string) (index.Index, error) {
	v, _ := t.Acquire()
	defer v.Release()
	s := v.Segment(seg)
	if s == nil {
		return nil, fmt.Errorf("lsm: segment %q not live", seg)
	}
	return t.LoadIndex(nil, s)
}

// LoadIndex loads the segment's vector index from the store, bounded
// by ctx; a trace on ctx counts the blob read among the query's reads.
func (t *Table) LoadIndex(ctx context.Context, s *Segment) (index.Index, error) {
	blob, err := storage.TracedGet(ctx, t.store, storage.IndexKey(t.opts.Name, s.Meta.Name, t.opts.IndexColumn))
	if err != nil {
		return nil, err
	}
	return t.DecodeIndex(s, blob)
}

// DecodeIndex builds the segment's index from its blob, wired to read
// exact vectors through the segment's reader. The index is of the type
// the segment's meta records; a meta written before it recorded one
// means the table's type.
func (t *Table) DecodeIndex(s *Segment, blob []byte) (index.Index, error) {
	typ := index.Type(s.Meta.IndexType)
	if typ == "" {
		typ = t.opts.IndexType
	}
	// Auto-index parameters are recomputed from the segment's row
	// count, which is stable.
	ix, err := index.New(typ, t.buildParamsFor(typ, s.Meta.Rows))
	if err != nil {
		if s.Meta.IndexType != "" {
			return nil, fmt.Errorf("lsm: index of %s: %w: %w", s.Meta.Name, err, index.ErrCorrupt)
		}
		return nil, err
	}
	if err := ix.Load(blob); err != nil {
		return nil, fmt.Errorf("lsm: loading index of %s: %w", s.Meta.Name, err)
	}
	t.wireRefine(ix, s.Reader)
	return ix, nil
}

// IndexKeyOf returns the blob key of a segment's ANN index.
func (t *Table) IndexKeyOf(seg string) string {
	return storage.IndexKey(t.opts.Name, seg, t.opts.IndexColumn)
}

// rawRefiner is implemented by quantized indexes that support an
// exact-distance refine stage (IVFPQ/IVFPQFS).
type rawRefiner interface {
	SetRawProvider(fn func(id int64, out []float32) bool)
}

// wireRefine gives quantized indexes a provider that reads exact
// vectors from the segment's vector column — the paper's "RFlat"
// re-rank. The column is fetched lazily once per loaded index and held
// for the index's cache lifetime.
func (t *Table) wireRefine(ix index.Index, rd *storage.SegmentReader) {
	rr, ok := ix.(rawRefiner)
	if !ok {
		return
	}
	var (
		once sync.Once
		col  *storage.ColumnData
	)
	vcol := t.opts.IndexColumn
	rr.SetRawProvider(func(id int64, out []float32) bool {
		once.Do(func() {
			c, err := rd.ReadColumn(vcol)
			if err == nil {
				col = c
			}
		})
		if col == nil || id < 0 || id >= int64(col.Len()) {
			return false
		}
		copy(out, col.Vector(int(id)))
		return true
	})
}
