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
	"sync"
	"sync/atomic"

	"blendhouse/internal/bitset"
	"blendhouse/internal/index"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
	"blendhouse/internal/wal"
)

// Options configures a table at creation.
type Options struct {
	Name   string
	Schema *storage.Schema

	// Vector index definition (the dialect's INDEX ... TYPE clause).
	// IndexColumn empty means no ANN index.
	IndexColumn string
	IndexType   index.Type
	IndexParams index.BuildParams
	// AutoIndex enables rule-based parameter selection per segment
	// size (paper §III-B "Auto index").
	AutoIndex bool
	// TuneOnCompaction runs the offline auto-tuner when compaction
	// builds a merged segment's index, refining the rule-based
	// parameters against sample queries drawn from the segment itself
	// (paper §III-B: "for background compaction tasks, we combine the
	// rule-based methods with auto-tuning tools"). Ingestion always
	// stays rule-only — tuning is too slow for the write path.
	TuneOnCompaction bool

	// PartitionBy lists scalar partition columns.
	PartitionBy []string
	// ClusterBuckets > 0 enables semantic partitioning into that many
	// k-means buckets over the vector column.
	ClusterBuckets int

	// SegmentRows caps rows per ingested segment (default 8192).
	SegmentRows int
	// BlockRows is the column granule size (default storage.DefaultBlockRows).
	BlockRows int
	// PipelinedBuild overlaps segment writing with index building
	// (BlendHouse's ingestion advantage in Table IV). Default true;
	// baselines disable it.
	PipelinedBuild bool

	Seed int64
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
// serialized internally; reads see a consistent snapshot of the
// segment catalog.
type Table struct {
	opts  Options
	store storage.BlobStore

	mu        sync.RWMutex
	segments  map[string]*storage.SegmentMeta
	readers   map[string]*storage.SegmentReader // of each live segment
	deletes   map[string]*bitset.Bitset         // lazily loaded delete bitmaps
	centroids *vec.Matrix                       // semantic bucket centroids; nil until trained
	nextSeg   int64
	hist      map[string]*Histogram // per-column histograms for the CBO

	// Real-time write path (nil / zero when the WAL is disabled).
	// mem is the active memtable; sealed holds memtables awaiting
	// flush (still query-visible); flushedLSN is the highest WAL LSN
	// whose effects are fully in segments — all guarded by t.mu.
	mem        *wal.Memtable
	sealed     []*wal.Memtable
	memGen     int64
	flushedLSN int64

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
	Options   manifestOptions       `json:"options"`
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

// manifestOptions is the serializable subset of Options.
type manifestOptions struct {
	Name             string            `json:"name"`
	Schema           *storage.Schema   `json:"schema"`
	IndexColumn      string            `json:"index_column,omitempty"`
	IndexType        index.Type        `json:"index_type,omitempty"`
	IndexParams      index.BuildParams `json:"index_params"`
	AutoIndex        bool              `json:"auto_index"`
	TuneOnCompaction bool              `json:"tune_on_compaction"`
	PartitionBy      []string          `json:"partition_by,omitempty"`
	ClusterBuckets   int               `json:"cluster_buckets"`
	SegmentRows      int               `json:"segment_rows"`
	BlockRows        int               `json:"block_rows"`
	PipelinedBuild   bool              `json:"pipelined_build"`
	Seed             int64             `json:"seed"`
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
	t := &Table{
		opts:     opts,
		store:    store,
		segments: map[string]*storage.SegmentMeta{},
		readers:  map[string]*storage.SegmentReader{},
		deletes:  map[string]*bitset.Bitset{},
		hist:     map[string]*Histogram{},
	}
	if err := t.saveManifest(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing table from its manifest.
func Open(store storage.BlobStore, name string) (*Table, error) {
	blob, err := store.Get(manifestKey(name))
	if err != nil {
		return nil, fmt.Errorf("lsm: opening table %q: %w", name, err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("lsm: parsing manifest of %q: %w", name, err)
	}
	t := &Table{
		opts: Options{
			Name: m.Options.Name, Schema: m.Options.Schema,
			IndexColumn: m.Options.IndexColumn, IndexType: m.Options.IndexType,
			IndexParams: m.Options.IndexParams, AutoIndex: m.Options.AutoIndex,
			TuneOnCompaction: m.Options.TuneOnCompaction,
			PartitionBy:      m.Options.PartitionBy, ClusterBuckets: m.Options.ClusterBuckets,
			SegmentRows: m.Options.SegmentRows, BlockRows: m.Options.BlockRows,
			PipelinedBuild: m.Options.PipelinedBuild, Seed: m.Options.Seed,
		},
		store:    store,
		segments: map[string]*storage.SegmentMeta{},
		readers:  map[string]*storage.SegmentReader{},
		deletes:  map[string]*bitset.Bitset{},
		nextSeg:  m.NextSeg,
		hist:     m.Hist,
	}
	if t.hist == nil {
		t.hist = map[string]*Histogram{}
	}
	if m.CentDim > 0 {
		t.centroids = &vec.Matrix{Dim: m.CentDim, Data: m.Centroids}
	}
	for _, seg := range m.Segments {
		sm, err := storage.ReadMeta(store, name, seg)
		if err != nil {
			return nil, fmt.Errorf("lsm: loading segment %s: %w", seg, err)
		}
		t.addSegmentLocked(sm) // not yet shared: no lock to hold
	}
	t.flushedLSN = m.FlushedLSN
	// Crash recovery: WAL records past the flushed watermark are the
	// acknowledged writes a crash interrupted — fold them into
	// segments before the table goes live. Runs even when the caller
	// won't re-enable the WAL, so no acknowledged write is ever
	// stranded in an unread log.
	if err := t.replayWAL(); err != nil {
		return nil, fmt.Errorf("lsm: recovering table %q: %w", name, err)
	}
	return t, nil
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
func (t *Table) replayWAL() error {
	log, pending, err := wal.Open(t.store, t.opts.Name, t.opts.Schema, t.flushedLSN, 0)
	if err != nil {
		return err
	}
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
		t.mu.Lock()
		for _, m := range metas {
			t.addSegmentLocked(m)
		}
		t.updateHistogramsLocked(b)
		t.mu.Unlock()
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
		Options: manifestOptions{
			Name: t.opts.Name, Schema: t.opts.Schema,
			IndexColumn: t.opts.IndexColumn, IndexType: t.opts.IndexType,
			IndexParams: t.opts.IndexParams, AutoIndex: t.opts.AutoIndex,
			TuneOnCompaction: t.opts.TuneOnCompaction,
			PartitionBy:      t.opts.PartitionBy, ClusterBuckets: t.opts.ClusterBuckets,
			SegmentRows: t.opts.SegmentRows, BlockRows: t.opts.BlockRows,
			PipelinedBuild: t.opts.PipelinedBuild, Seed: t.opts.Seed,
		},
		NextSeg:    t.nextSeg,
		Hist:       t.hist,
		FlushedLSN: t.flushedLSN,
	}
	for name := range t.segments {
		m.Segments = append(m.Segments, name)
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

// Segments snapshots the live segment metadata.
func (t *Table) Segments() []*storage.SegmentMeta {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*storage.SegmentMeta, 0, len(t.segments))
	for _, m := range t.segments {
		out = append(out, m)
	}
	return out
}

// SegmentCount returns the number of live segments.
func (t *Table) SegmentCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segments)
}

// Rows returns the live row count (total minus deleted).
func (t *Table) Rows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for name, m := range t.segments {
		n += m.Rows
		if d := t.deletes[name]; d != nil {
			n -= d.Count()
		}
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

// DeleteBitmap returns the segment's delete bitmap, loading it from
// the store on first use. A nil return means no rows are deleted.
func (t *Table) DeleteBitmap(seg string) (*bitset.Bitset, error) {
	return t.DeleteBitmapCtx(nil, seg)
}

// DeleteBitmapCtx is DeleteBitmap bounded by a context: a fired
// deadline aborts the (remote) blob read on a cache miss.
func (t *Table) DeleteBitmapCtx(ctx context.Context, seg string) (*bitset.Bitset, error) {
	t.mu.RLock()
	if d, ok := t.deletes[seg]; ok {
		t.mu.RUnlock()
		return d, nil
	}
	t.mu.RUnlock()
	// A miss is cached too: a segment with no deletions would otherwise
	// pay a remote round trip per query re-probing a blob that isn't
	// there.
	var d *bitset.Bitset
	blob, err := storage.GetCtx(ctx, t.store, storage.DeleteBitmapKey(t.opts.Name, seg))
	switch {
	case err == nil:
		d = new(bitset.Bitset)
		if err := d.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("lsm: corrupt delete bitmap of %s: %w", seg, err)
		}
	case !storage.IsNotFound(err):
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// A DELETE (markDeleted) or a compaction that installed an entry
	// while the store was read holds what the store now says, or newer.
	if cur, ok := t.deletes[seg]; ok {
		return cur, nil
	}
	t.deletes[seg] = d
	return d, nil
}

// addSegmentLocked registers a segment with the reader every query of
// it shares (a reader is immutable); caller holds t.mu.
func (t *Table) addSegmentLocked(m *storage.SegmentMeta) {
	t.segments[m.Name] = m
	t.readers[m.Name] = &storage.SegmentReader{Store: t.store, Meta: m, Schema: t.opts.Schema}
}

// Reader returns the column reader of a live segment.
func (t *Table) Reader(seg string) (*storage.SegmentReader, error) {
	t.mu.RLock()
	rd, ok := t.readers[seg]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("lsm: segment %q not live", seg)
	}
	return rd, nil
}

// OpenIndex loads the per-segment vector index from the store,
// bypassing any cache (workers wrap this with the hierarchical
// cache; tests and single-node paths call it directly).
func (t *Table) OpenIndex(seg string) (index.Index, error) {
	return t.OpenIndexCtx(nil, seg)
}

// OpenIndexCtx is OpenIndex bounded by a context: a fired deadline or
// cancel aborts the index blob read.
func (t *Table) OpenIndexCtx(ctx context.Context, seg string) (index.Index, error) {
	t.mu.RLock()
	m, ok := t.segments[seg]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("lsm: segment %q not live", seg)
	}
	return t.loadIndexForMetaCtx(ctx, m)
}

// IndexKeyOf returns the blob key of a segment's ANN index.
func (t *Table) IndexKeyOf(seg string) string {
	return storage.IndexKey(t.opts.Name, seg, t.opts.IndexColumn)
}

// IndexLoaderFor returns a deserializer closure for the segment's
// index blob — this is what workers hand to the hierarchical cache.
func (t *Table) IndexLoaderFor(meta *storage.SegmentMeta) func(blob []byte) (any, int64, error) {
	return func(blob []byte) (any, int64, error) {
		ix, err := t.newIndexFor(meta)
		if err != nil {
			return nil, 0, err
		}
		if err := ix.Load(blob); err != nil {
			return nil, 0, err
		}
		t.wireRefine(ix, meta)
		return ix, ix.MemoryBytes(), nil
	}
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
func (t *Table) wireRefine(ix index.Index, meta *storage.SegmentMeta) {
	rr, ok := ix.(rawRefiner)
	if !ok {
		return
	}
	var (
		once sync.Once
		col  *storage.ColumnData
	)
	rd := &storage.SegmentReader{Store: t.store, Meta: meta, Schema: t.opts.Schema}
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

func (t *Table) loadIndexForMeta(m *storage.SegmentMeta) (index.Index, error) {
	return t.loadIndexForMetaCtx(nil, m)
}

func (t *Table) loadIndexForMetaCtx(ctx context.Context, m *storage.SegmentMeta) (index.Index, error) {
	blob, err := storage.GetCtx(ctx, t.store, storage.IndexKey(t.opts.Name, m.Name, t.opts.IndexColumn))
	if err != nil {
		return nil, err
	}
	ix, err := t.newIndexFor(m)
	if err != nil {
		return nil, err
	}
	if err := ix.Load(blob); err != nil {
		return nil, fmt.Errorf("lsm: loading index of %s: %w", m.Name, err)
	}
	t.wireRefine(ix, m)
	return ix, nil
}

// newIndexFor constructs an empty index with the same parameters used
// at build time for the segment (auto-index parameters are recomputed
// from the segment's row count, which is stable).
func (t *Table) newIndexFor(m *storage.SegmentMeta) (index.Index, error) {
	p := t.buildParamsFor(m.Rows)
	return index.New(t.opts.IndexType, p)
}
