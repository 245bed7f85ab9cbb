package lsm

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"blendhouse/internal/autoindex"
	"blendhouse/internal/index"
	"blendhouse/internal/kmeans"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// Insert ingests a batch synchronously: rows are routed by scalar
// partition key and semantic bucket, split into segments of at most
// SegmentRows, and each segment's columns are written beside the build
// of its ANN index (BlendHouse's pipelined ingestion, the source of its
// Table IV win). When the table's WAL is enabled, use InsertCtx
// instead: it group-commits through the log and defers segment cutting
// to the background flusher.
func (t *Table) Insert(batch *storage.RowBatch) error {
	if err := batch.Validate(); err != nil {
		return err
	}
	if batch.Len() == 0 {
		return nil
	}
	return t.insertSegments(batch)
}

// insertSegments is the synchronous segment-cutting path shared by
// direct inserts, the memtable flusher, and WAL replay.
func (t *Table) insertSegments(batch *storage.RowBatch) error {
	metas, err := t.writeBatchSegments(batch)
	if err != nil {
		return err
	}
	t.publish(func(next *Version) { t.addLocked(next, metas, batch) })
	return t.saveManifest()
}

// writeBatchSegments routes and writes a batch's segments without
// registering them in the catalog — callers decide what else must
// swap atomically with registration (the flusher retires its memtable
// in the same critical section).
func (t *Table) writeBatchSegments(batch *storage.RowBatch) ([]*storage.SegmentMeta, error) {
	groups, err := t.routeRows(batch)
	if err != nil {
		return nil, err
	}
	var newMetas []*storage.SegmentMeta
	for _, g := range groups {
		for start := 0; start < g.batch.Len(); start += t.opts.SegmentRows {
			end := start + t.opts.SegmentRows
			if end > g.batch.Len() {
				end = g.batch.Len()
			}
			meta, err := t.writeSegment(g.batch.View(start, end), g.partition, g.bucket, 0)
			if err != nil {
				return nil, err
			}
			newMetas = append(newMetas, meta)
		}
	}
	return newMetas, nil
}

// routeGroup is one (partition, bucket) slice of an ingest batch.
type routeGroup struct {
	partition string
	bucket    int
	batch     *storage.RowBatch
}

// routeRows splits the batch by scalar partition key value and
// semantic bucket. Semantic centroids are trained lazily on the first
// clustered ingest (paper §IV-B: "the system ... perform[s] k-means
// clustering during ingestion"). When every row routes to one group,
// that group's batch is the input itself, not a copy.
func (t *Table) routeRows(batch *storage.RowBatch) ([]*routeGroup, error) {
	n := batch.Len()
	parts := make([]string, n)
	if len(t.opts.PartitionBy) > 0 {
		cols := make([]*storage.ColumnData, len(t.opts.PartitionBy))
		for i, pc := range t.opts.PartitionBy {
			cols[i] = batch.Col(pc)
		}
		for r := 0; r < n; r++ {
			vals := make([]string, len(cols))
			for i, c := range cols {
				vals[i] = c.ValueString(r)
			}
			parts[r] = strings.Join(vals, "|")
		}
	}
	buckets := make([]int, n)
	if t.opts.ClusterBuckets > 0 {
		vcol := batch.Col(t.opts.Schema.VectorColumn().Name)
		mat := &vec.Matrix{Dim: vcol.Def.Dim, Data: vcol.Vecs}
		if err := t.ensureCentroids(mat); err != nil {
			return nil, err
		}
		assign := kmeans.AssignNearest(mat, t.Centroids())
		copy(buckets, assign)
	} else {
		for i := range buckets {
			buckets[i] = -1
		}
	}
	one := true
	for r := 1; r < n && one; r++ {
		one = parts[r] == parts[0] && buckets[r] == buckets[0]
	}
	if n > 0 && one {
		return []*routeGroup{{partition: parts[0], bucket: buckets[0], batch: batch}}, nil
	}
	type groupKey struct {
		partition string
		bucket    int
	}
	groups := map[groupKey]*routeGroup{}
	var out []*routeGroup
	for r := 0; r < n; r++ {
		key := groupKey{parts[r], buckets[r]}
		g, ok := groups[key]
		if !ok {
			g = &routeGroup{partition: parts[r], bucket: buckets[r], batch: storage.NewRowBatch(t.opts.Schema)}
			groups[key] = g
			out = append(out, g)
		}
		g.batch.AppendRow(batch, r)
	}
	return out, nil
}

// ensureCentroids trains the semantic bucket centroids on the first
// clustered ingest.
func (t *Table) ensureCentroids(sample *vec.Matrix) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.centroids != nil {
		return nil
	}
	res, err := kmeans.Train(sample, kmeans.Config{K: t.opts.ClusterBuckets, Seed: t.opts.Seed, MaxIters: 10})
	if err != nil {
		return fmt.Errorf("lsm: training semantic buckets: %w", err)
	}
	t.centroids = res.Centroids
	return nil
}

// writeSegment persists one segment's columns and ANN index, returning
// the finished metadata. level records the compaction depth.
func (t *Table) writeSegment(batch *storage.RowBatch, partition string, bucket, level int) (*storage.SegmentMeta, error) {
	t.mu.Lock()
	segName := fmt.Sprintf("seg%08d", t.nextSeg)
	t.nextSeg++
	t.mu.Unlock()

	base := storage.SegmentMeta{
		Name: segName, Table: t.opts.Name,
		Partition: partition, Bucket: bucket, Level: level,
	}
	typ := t.indexTypeFor(batch.Len())
	if t.opts.IndexColumn != "" {
		base.IndexedColumn = t.opts.IndexColumn
		base.IndexType = string(typ)
	}

	// An index type that saves its rows verbatim (index.RowKeeper) makes
	// its blob the indexed column's only copy: the column is not written
	// and the segment's meta points its granules into the index blob.
	indexed := t.opts.IndexColumn != "" && batch.Len() > 0
	shared := ""
	if indexed && t.indexKeepsRows(typ, batch.Len()) {
		shared = t.opts.IndexColumn
	}

	// Column serialization runs beside index construction; the slower
	// of the two bounds latency instead of their sum.
	var (
		meta             *storage.SegmentMeta
		idxBlob          []byte
		rowsOff          int64
		writeErr, idxErr error
		wg               sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		meta, writeErr = storage.WriteColumns(t.store, base, batch, t.opts.BlockRows, shared)
	}()
	if indexed {
		idxBlob, rowsOff, idxErr = t.buildIndexBlob(typ, batch)
	}
	wg.Wait()
	if writeErr != nil {
		return nil, fmt.Errorf("lsm: writing segment %s: %w", segName, writeErr)
	}
	if idxErr != nil {
		return nil, fmt.Errorf("lsm: building index for %s: %w", segName, idxErr)
	}
	if indexed {
		key := storage.IndexKey(t.opts.Name, segName, t.opts.IndexColumn)
		if err := t.store.Put(key, idxBlob); err != nil {
			return nil, fmt.Errorf("lsm: writing index of %s: %w", segName, err)
		}
		if shared != "" {
			if rowsOff < 0 {
				return nil, fmt.Errorf("lsm: index of %s does not hold the rows of %q", segName, shared)
			}
			meta.ShareColumn(shared, key, rowsOff)
		}
	}
	// meta.json last: a segment directory that describes itself is whole.
	if err := meta.Commit(t.store); err != nil {
		return nil, fmt.Errorf("lsm: writing segment %s: %w", segName, err)
	}
	return meta, nil
}

// indexKeepsRows reports whether an index of type typ saves the rows
// it is given verbatim; a property of the type, asked of an empty index.
func (t *Table) indexKeepsRows(typ index.Type, n int) bool {
	ix, _ := index.New(typ, t.buildParamsFor(typ, n)) // the build reports a failure
	rk, ok := ix.(index.RowKeeper)
	if ok {
		_, _, ok = rk.SavedRows(0)
	}
	return ok
}

// indexTypeFor returns the index type a segment of n rows is built
// with: under AutoIndex the one autoindex.SelectType picks (an exact
// flat scan below autoindex.MinIndexRows), otherwise the table's.
func (t *Table) indexTypeFor(n int) index.Type {
	if t.opts.AutoIndex && !t.opts.indexEverySegment {
		return autoindex.SelectType(t.opts.IndexType, n)
	}
	return t.opts.IndexType
}

// buildParamsFor applies the auto-index rules for an index of type typ
// over n rows.
func (t *Table) buildParamsFor(typ index.Type, n int) index.BuildParams {
	p := t.opts.IndexParams
	p.Seed = t.opts.Seed
	if t.opts.AutoIndex {
		p = autoindex.Apply(typ, n, p)
	}
	return p.WithDefaults()
}

// buildIndexBlob constructs the per-segment index of type typ over the
// batch's vector column, with row offsets as IDs (paper §III-B), and
// serializes it, returning the blob and where in it the column's rows
// lie (-1 when the index does not keep them: index.RowKeeper).
func (t *Table) buildIndexBlob(typ index.Type, batch *storage.RowBatch) ([]byte, int64, error) {
	vcol := batch.Col(t.opts.IndexColumn)
	n := vcol.Len()
	ix, err := index.New(typ, t.buildParamsFor(typ, n))
	if err != nil {
		return nil, 0, err
	}
	if ix.NeedsTrain() {
		if err := ix.Train(vcol.Vecs); err != nil {
			return nil, 0, err
		}
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := ix.AddWithIDs(vcol.Vecs, ids); err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		return nil, 0, err
	}
	rowsOff := int64(-1)
	if rk, ok := ix.(index.RowKeeper); ok {
		if off, length, ok := rk.SavedRows(int64(buf.Len())); ok && length == int64(4*len(vcol.Vecs)) {
			rowsOff = off
		}
	}
	return buf.Bytes(), rowsOff, nil
}
