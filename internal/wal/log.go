package wal

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
)

// WAL metrics (SHOW METRICS / the -debug-addr endpoint). Average
// group-commit batch size is appends/commits; last_batch exposes the
// instantaneous coalescing the averages hide.
var (
	mAppends     = obs.Default().Counter("bh.wal.append.records")
	mCommits     = obs.Default().Counter("bh.wal.commit.total")
	mCommitBytes = obs.Default().Counter("bh.wal.commit.bytes")
	mLastBatch   = obs.Default().Gauge("bh.wal.commit.last_batch")
	mFsync       = obs.Default().Histogram("bh.wal.fsync.latency")
)

var walLog = obs.Logger("wal")

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log closed")

// DefaultMaxCommitRecords caps how many statements one group commit
// coalesces into a single blob append.
const DefaultMaxCommitRecords = 64

// Log is a per-table write-ahead log over a blob store. Each group
// commit writes one immutable blob named by its LSN range; the blob
// Put is the "fsync" (FSStore makes it crash-atomic and durable).
// Concurrent Appends coalesce: the committer goroutine drains every
// pending request into one blob write and acknowledges them together.
type Log struct {
	store  storage.BlobStore
	table  string
	schema *storage.Schema

	maxBatch int
	apply    func(*Record) // called in LSN order after the durable write

	reqCh chan *appendReq
	done  chan struct{}

	mu      sync.RWMutex // guards closed + enqueue vs Close
	closed  bool
	nextLSN int64 // owned by the committer once started
}

type appendReq struct {
	rec  *Record
	done chan error
}

// logPrefix is where a table's WAL blobs live.
func logPrefix(table string) string { return "tables/" + table + "/wal/" }

// Prefix returns the blob-key prefix of a table's WAL — exported for
// the backup subsystem, which copies the tail without opening a Log.
func Prefix(table string) string { return logPrefix(table) }

// ParseBlobLSNs recovers the inclusive LSN range encoded in a WAL blob
// key (the counterpart of the naming scheme in blobKey).
func ParseBlobLSNs(key string) (first, last int64, ok bool) { return parseBlobKey(key) }

// blobKey names one group commit by its inclusive LSN range, fixed
// width so lexical listing order is LSN order.
func blobKey(table string, first, last int64) string {
	return fmt.Sprintf("%s%016x-%016x.log", logPrefix(table), first, last)
}

// parseBlobKey recovers the LSN range from a blob key.
func parseBlobKey(key string) (first, last int64, ok bool) {
	base := key[strings.LastIndexByte(key, '/')+1:]
	var f, l int64
	if _, err := fmt.Sscanf(base, "%016x-%016x.log", &f, &l); err != nil {
		return 0, 0, false
	}
	return f, l, true
}

// Open loads a table's WAL: records with LSN > afterLSN are returned
// for replay (in LSN order), and the log's next LSN is positioned past
// everything on disk. Call Start before Append.
func Open(store storage.BlobStore, table string, schema *storage.Schema, afterLSN int64, maxCommitRecords int) (*Log, []*Record, error) {
	keys, err := store.List(logPrefix(table))
	if err != nil {
		return nil, nil, err
	}
	return OpenListed(store, table, schema, keys, afterLSN, maxCommitRecords)
}

// OpenListed is Open over keys, a listing of the table's Prefix the
// caller already holds: the log is positioned past every blob keys
// names, and only blobs holding records past afterLSN are read.
func OpenListed(store storage.BlobStore, table string, schema *storage.Schema, keys []string, afterLSN int64, maxCommitRecords int) (*Log, []*Record, error) {
	if maxCommitRecords <= 0 {
		maxCommitRecords = DefaultMaxCommitRecords
	}
	l := &Log{
		store:    store,
		table:    table,
		schema:   schema,
		maxBatch: maxCommitRecords,
		nextLSN:  afterLSN + 1,
		reqCh:    make(chan *appendReq, 4*maxCommitRecords),
		done:     make(chan struct{}),
	}
	var pending []*Record
	for _, k := range keys {
		first, last, ok := parseBlobKey(k)
		if !ok {
			return nil, nil, fmt.Errorf("wal: unrecognized blob %q", k)
		}
		if last > l.nextLSN-1 {
			l.nextLSN = last + 1
		}
		if last <= afterLSN {
			continue
		}
		blob, err := store.Get(k)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reading %s: %w", k, err)
		}
		recs, err := DecodeBlob(schema, blob)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %s: %w", k, err)
		}
		if len(recs) > 0 && (recs[0].LSN != first || recs[len(recs)-1].LSN != last) {
			return nil, nil, fmt.Errorf("wal: %s: LSN range %d-%d does not match name", k, recs[0].LSN, recs[len(recs)-1].LSN)
		}
		for _, r := range recs {
			if r.LSN > afterLSN {
				pending = append(pending, r)
			}
		}
	}
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].LSN < pending[j].LSN })
	return l, pending, nil
}

// Start launches the group committer. apply (may be nil) runs once per
// record, in LSN order, after the record's blob is durably written and
// before the writer is acknowledged — it is how the owning table
// populates its memtable without racing acknowledgement.
func (l *Log) Start(apply func(*Record)) {
	l.apply = apply
	go l.commitLoop()
}

// Append group-commits one record: it is assigned the next LSN,
// written durably (possibly coalesced with concurrent appends into one
// blob), applied, and only then acknowledged. A ctx fired while
// waiting returns the ctx error; the record may still commit (the
// usual WAL commit-timeout semantics — resolve by reopening).
func (l *Log) Append(ctx context.Context, rec *Record) (int64, error) {
	req := &appendReq{rec: rec, done: make(chan error, 1)}
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		return 0, ErrClosed
	}
	select {
	case l.reqCh <- req:
		l.mu.RUnlock()
	case <-ctx.Done():
		l.mu.RUnlock()
		return 0, ctx.Err()
	}
	select {
	case err := <-req.done:
		if err != nil {
			return 0, err
		}
		return rec.LSN, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// commitLoop is the single committer: it batches pending requests,
// writes one blob per batch, applies, and acknowledges.
func (l *Log) commitLoop() {
	defer close(l.done)
	for req := range l.reqCh {
		batch := []*appendReq{req}
		for len(batch) < l.maxBatch {
			select {
			case r, ok := <-l.reqCh:
				if !ok {
					l.commit(batch)
					return
				}
				batch = append(batch, r)
			default:
				goto commit
			}
		}
	commit:
		l.commit(batch)
	}
}

// commit writes one batch as a single blob and acknowledges every
// request with the outcome.
func (l *Log) commit(batch []*appendReq) {
	recs := make([]*Record, len(batch))
	first := l.nextLSN
	for i, req := range batch {
		req.rec.LSN = l.nextLSN
		l.nextLSN++
		recs[i] = req.rec
	}
	last := l.nextLSN - 1
	blob, err := EncodeBlob(recs)
	if err == nil {
		start := obs.Now()
		err = l.store.Put(blobKey(l.table, first, last), blob)
		mFsync.Observe(time.Since(start))
	}
	if err == nil {
		mCommits.Inc()
		mAppends.Add(int64(len(batch)))
		mCommitBytes.Add(int64(len(blob)))
		mLastBatch.Set(int64(len(batch)))
		walLog.Debug("group commit", "table", l.table, "records", len(batch),
			"first_lsn", first, "last_lsn", last, "bytes", len(blob))
		if l.apply != nil {
			for _, req := range batch {
				l.apply(req.rec)
			}
		}
	} else {
		walLog.Error("group commit failed", "table", l.table, "records", len(batch), "error", err)
	}
	for _, req := range batch {
		req.done <- err
	}
}

// TruncateBelow deletes WAL blobs whose every record has LSN <= lsn —
// called after a flush makes those records redundant with segments.
func (l *Log) TruncateBelow(lsn int64) error {
	keys, err := l.store.List(logPrefix(l.table))
	if err != nil {
		return err
	}
	for _, k := range keys {
		_, last, ok := parseBlobKey(k)
		if !ok {
			continue
		}
		if last <= lsn {
			if err := l.store.Delete(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close stops accepting appends, commits everything already enqueued,
// and waits for the committer to exit. Idempotent.
func (l *Log) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.closed = true
	close(l.reqCh)
	l.mu.Unlock()
	<-l.done
}
