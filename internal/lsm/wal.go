package lsm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
	"blendhouse/internal/wal"
)

// Real-time write path metrics. The memtable gauges sum every live
// memtable, active or sealed, of every table in the process: a row
// counts from its apply until its memtable is retired.
var (
	mFlushRuns  = obs.Default().Counter("bh.lsm.flush.runs")
	mFlushRows  = obs.Default().Counter("bh.lsm.flush.rows")
	mFlushDur   = obs.Default().Histogram("bh.lsm.flush.duration")
	mFlushErrs  = obs.Default().Counter("bh.lsm.flush.errors")
	mMemRows    = obs.Default().Gauge("bh.lsm.memtable.rows")
	mMemBytes   = obs.Default().Gauge("bh.lsm.memtable.bytes")
	mMemStalls  = obs.Default().Counter("bh.lsm.memtable.stalls")
	mWALInserts = obs.Default().Counter("bh.lsm.wal.inserts")
)

var lsmLog = obs.Logger("lsm")

// ErrReadOnly is returned by a write (Insert, DeleteByKey, Update) to a
// table whose log is not running — never enabled, or stopped by CloseWAL
// or Drop. The log is the only write path, so the write stores nothing.
var ErrReadOnly = errors.New("lsm: table is read-only: its write-ahead log is not running")

func (t *Table) errReadOnly() error { return fmt.Errorf("%w (table %q)", ErrReadOnly, t.opts.Name) }

// The memtable's byte budget and the flush backlog: crossing
// maxMemBytes trips a background flush like MaxMemRows does, and
// writers block (ctx-cancellable) while maxSealed sealed memtables
// await flushing.
const (
	maxMemBytes = 32 << 20
	maxSealed   = 2
)

// WALConfig tunes the real-time write path of one table.
type WALConfig struct {
	// MaxMemRows trips a background flush when the active memtable
	// holds this many rows (default 8192), or maxMemBytes.
	MaxMemRows int
	// FlushInterval bounds how long rows sit unflushed regardless of
	// volume (default 2s).
	FlushInterval time.Duration
	// OnError observes background flush failures (may be nil). The
	// failed memtable stays sealed and query-visible; the flusher
	// retries on the next tick.
	OnError func(error)
}

func (c WALConfig) withDefaults() WALConfig {
	if c.MaxMemRows <= 0 {
		c.MaxMemRows = 8192
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Second
	}
	return c
}

// walState is the runtime of an enabled WAL: the log plus the
// background flusher. It lives behind an atomic pointer on Table so
// the insert fast path avoids t.mu.
type walState struct {
	cfg WALConfig
	log *wal.Log

	flushCh chan struct{} // kick the flusher (non-blocking sends)
	stopCh  chan struct{}
	doneCh  chan struct{}

	// spaceCh is closed and replaced each time a flush retires a
	// memtable; writers blocked on backpressure wait on it. Guarded
	// by t.mu.
	spaceCh chan struct{}
}

// EnableWAL starts the table's write path: Insert, DeleteByKey and
// Update group-commit through a durable log, acknowledged rows become
// query-visible via the memtable immediately, and a background
// flusher drains the memtable into L0 segments through the normal
// ingest + auto-index path. Until it runs, and after CloseWAL or Drop,
// every write returns ErrReadOnly. Call CloseWAL before abandoning the
// handle: it stops the flusher.
func (t *Table) EnableWAL(cfg WALConfig) error {
	cfg = cfg.withDefaults()
	if t.walRT.Load() != nil {
		return fmt.Errorf("lsm: WAL already enabled on %q", t.opts.Name)
	}
	t.mu.Lock()
	afterLSN, keys := t.flushedLSN, t.walKeys
	t.walKeys = nil
	t.mu.Unlock()
	// A handle Open recovered positions its log from Open's listing:
	// every blob it names past afterLSN was replayed, and the log has
	// had no writer since. Any other handle lists the log.
	var (
		log     *wal.Log
		pending []*wal.Record
		err     error
	)
	if keys != nil {
		log, pending, err = wal.OpenListed(t.store, t.opts.Name, t.opts.Schema, keys, afterLSN)
	} else {
		log, pending, err = wal.Open(t.store, t.opts.Name, t.opts.Schema, afterLSN)
	}
	if err != nil {
		return err
	}
	// Open already replayed the log into segments, so pending is
	// normally empty; anything here (e.g. a WAL enabled on a table
	// handle that skipped Open) is already durable — make it visible
	// through the memtable.
	ws := &walState{
		cfg:     cfg,
		log:     log,
		flushCh: make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
		spaceCh: make(chan struct{}),
	}
	t.publish(func(next *Version) {
		t.memGen++
		next.mem = wal.NewMemtable(t.opts.Schema, t.memGen)
		for _, rec := range pending {
			switch rec.Type {
			case wal.RecInsert:
				appendTo(next.mem, rec.Batch, rec.LSN)
			case wal.RecDelete:
				next.mem.DeleteByKey(rec.DeleteCol, rec.DeleteKeys)
				next.mem.NoteLSN(rec.LSN) // sole memtable here, so it is the active one
			}
		}
	})
	// Segment bitmaps for replayed deletes (memtable handled above).
	for _, rec := range pending {
		if rec.Type == wal.RecDelete {
			if _, err := t.deleteFromSegments(rec.DeleteCol, rec.DeleteKeys); err != nil {
				return err
			}
		}
	}
	t.walRT.Store(ws)
	log.Start(t.walApply)
	go t.flushLoop(ws)
	return nil
}

// walApply is the group committer's post-durability hook: it makes an
// insert's rows visible in the active memtable before the writer is
// acknowledged. Holding t.mu.RLock across the append pins the
// active memtable — a concurrent seal (t.mu.Lock) either waits for
// this apply or happens entirely before it, so no applied record can
// land in a sealed memtable after its flush snapshot. A delete's marks
// are applied by its DeleteByKey caller under dmlMu; the hook only
// orders its ack after durability.
func (t *Table) walApply(rec *wal.Record) {
	if rec.Type != wal.RecInsert {
		return
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	appendTo(t.cur.mem, rec.Batch, rec.LSN)
}

// appendTo applies an acknowledged insert to the active memtable m
// and counts it in the memtable gauges. Caller holds t.mu, read or
// write: a memtable is retired only under the write lock.
func appendTo(m *wal.Memtable, batch *storage.RowBatch, lsn int64) {
	mMemBytes.Add(m.Append(batch, lsn))
	mMemRows.Add(int64(batch.Len()))
}

// retire uncounts a memtable that has left the table — flushed into
// segments, or discarded — and that nothing of the table reaches any
// more. Caller holds t.mu.
func retire(m *wal.Memtable) {
	mMemRows.Add(-int64(m.Rows()))
	mMemBytes.Add(-m.Bytes())
}

// Insert ingests a batch through the write path: the batch is
// group-committed to the durable log and becomes query-visible via the
// memtable the moment this returns — segment cutting and index
// building happen later in the background flusher. A table whose log
// is not running returns ErrReadOnly. Backpressure: when the flush
// backlog is full the call blocks until a flush completes or ctx
// fires.
func (t *Table) Insert(ctx context.Context, batch *storage.RowBatch) error {
	if err := batch.Validate(); err != nil {
		return err
	}
	if batch.Len() == 0 {
		return nil
	}
	ws := t.walRT.Load()
	if ws == nil {
		return t.errReadOnly()
	}
	if err := t.waitForSpace(ctx, ws); err != nil {
		return err
	}
	_, err := ws.log.Append(ctx, &wal.Record{Type: wal.RecInsert, Batch: batch})
	if errors.Is(err, wal.ErrClosed) {
		return t.errReadOnly()
	}
	if err != nil {
		return err
	}
	mWALInserts.Inc()
	t.mu.RLock()
	// A table dropped since the append holds no memtable.
	m := t.cur.mem
	over := m != nil && (m.Rows() >= ws.cfg.MaxMemRows || m.Bytes() >= maxMemBytes)
	t.mu.RUnlock()
	if over {
		kickFlush(ws)
	}
	return nil
}

func kickFlush(ws *walState) {
	select {
	case ws.flushCh <- struct{}{}:
	default:
	}
}

// waitForSpace blocks while the sealed backlog is at its cap.
func (t *Table) waitForSpace(ctx context.Context, ws *walState) error {
	for {
		t.mu.RLock()
		n := len(t.cur.sealed)
		ch := ws.spaceCh
		t.mu.RUnlock()
		if n < maxSealed {
			return nil
		}
		mMemStalls.Inc()
		kickFlush(ws)
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// flushLoop drains the memtable on size kicks and on a freshness
// timer until stopped.
func (t *Table) flushLoop(ws *walState) {
	defer close(ws.doneCh)
	ticker := time.NewTicker(ws.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ws.stopCh:
			return
		case <-ws.flushCh:
		case <-ticker.C:
		}
		if err := t.flushOnce(ws); err != nil {
			mFlushErrs.Inc()
			lsmLog.Error("flush failed", "table", t.Name(), "error", err)
			if ws.cfg.OnError != nil {
				ws.cfg.OnError(err)
			}
		}
	}
}

// flushOnce seals the active memtable and flushes every sealed
// memtable, oldest first, into L0 segments. Holding dmlMu for the
// whole run freezes sealed memtables (deletes serialize behind it),
// so each flush snapshot is exact. Per memtable: write segments
// outside all locks, then atomically swap — register segments, retire
// the memtable, advance flushedLSN — under one t.mu.Lock so queries
// see exactly one of (memtable rows | segment rows). The manifest Put
// persists the watermark before the WAL below it is truncated; a
// crash between the two just replays idempotent work. A row-less
// memtable whose LSN a DELETE raised is sealed too: the delete's bitmaps
// are persisted, so its flush only moves the watermark past the record.
func (t *Table) flushOnce(ws *walState) error {
	t.dmlMu.Lock()
	defer t.dmlMu.Unlock()
	start := obs.Now()
	cur := t.current() // dmlMu keeps its memtable set current
	sealed := cur.sealed
	if cur.mem != nil && (cur.mem.Rows() > 0 || cur.mem.MaxLSN() > t.FlushedLSN()) {
		t.publish(func(next *Version) {
			next.sealed = append(next.sealed, next.mem)
			t.memGen++
			next.mem = wal.NewMemtable(t.opts.Schema, t.memGen)
			sealed = next.sealed
		})
	}
	if len(sealed) == 0 {
		return nil
	}
	flushedRows := 0
	for _, m := range sealed {
		snap := m.Snapshot()
		live := snap.LiveBatch()
		var metas []*storage.SegmentMeta
		if live.Len() > 0 {
			var err error
			metas, err = t.writeBatchSegments(live)
			if err != nil {
				return err // memtable stays sealed + visible; retried next tick
			}
		}
		var watermark int64
		t.publish(func(next *Version) {
			t.addLocked(next, metas, live)
			// Delete clears the vacated slot, so the backing array does
			// not keep the flushed rows alive until a later seal
			// overwrites it.
			if i := slices.Index(next.sealed, m); i >= 0 {
				next.sealed = slices.Delete(next.sealed, i, i+1)
				retire(m)
			}
			// Backlog space just freed — wake writers blocked on
			// backpressure now rather than after the whole run, so a
			// later memtable's flush error can't strand them behind space
			// that already exists.
			close(ws.spaceCh)
			ws.spaceCh = make(chan struct{})
			if snap.MaxLSN > t.flushedLSN {
				t.flushedLSN = snap.MaxLSN
			}
			watermark = t.flushedLSN
		})
		if err := t.saveManifest(); err != nil {
			return err
		}
		// Skip truncation while a backup pins the tail. The flush itself
		// proceeds — only log reclamation is deferred; the unpin runs a
		// catch-up truncate. (A pin landing between this check and the
		// delete is still safe: truncation only removes blobs at or
		// below a watermark already durable in the manifest, which any
		// subsequent backup's manifest read will reflect.)
		if !t.walTruncatePinned() {
			if err := ws.log.TruncateBelow(watermark); err != nil {
				return err
			}
		}
		flushedRows += live.Len()
	}
	mFlushRuns.Inc()
	mFlushRows.Add(int64(flushedRows))
	dur := time.Since(start)
	mFlushDur.Observe(dur)
	lsmLog.Info("memtable flush", "table", t.Name(), "rows", flushedRows,
		"memtables", len(sealed), "duration_ms", float64(dur.Microseconds())/1000)
	return nil
}

// CloseWAL drains and stops the write path: in-flight appends commit,
// the flusher stops, and one final flush moves every memtable row into
// segments (after which the WAL directory is empty). The table stays
// readable; a write to it returns ErrReadOnly until EnableWAL runs
// again.
func (t *Table) CloseWAL() error {
	ws := t.stopWAL()
	if ws == nil {
		return nil
	}
	return t.flushOnce(ws)
}

// stopWAL disables the real-time write path without flushing: in-flight
// appends commit and the flusher stops. It returns the stopped runtime,
// nil when the WAL was not enabled.
func (t *Table) stopWAL() *walState {
	ws := t.walRT.Swap(nil)
	if ws != nil {
		ws.log.Close() // drains the commit queue; applies land in the memtable
		close(ws.stopCh)
		<-ws.doneCh
	}
	return ws
}

// Drop stops the table's write path without flushing, retires its
// memtables and deletes every blob the table stored (DROP TABLE). A
// flush already under way finishes first. A write that loses the race
// returns ErrReadOnly and stores nothing: every append the log took
// committed before Drop lists the blobs it deletes. The handle must not
// be used afterwards.
func (t *Table) Drop() error {
	ws := t.stopWAL()
	t.dmlMu.Lock()
	t.dropped.Store(true)
	t.publish(func(next *Version) {
		for _, m := range next.memtables() {
			retire(m)
		}
		next.Segments, next.sealed, next.mem = nil, nil, nil
		if ws != nil {
			close(ws.spaceCh) // a writer stalled on the backlog finds the log closed
			ws.spaceCh = make(chan struct{})
		}
	})
	t.dmlMu.Unlock()
	return t.deleteBlobs("tables/" + t.opts.Name + "/")
}

// FlushWAL forces a synchronous flush of the memtable, leaving the
// write path running (loaders that cut segments at set points, tests
// and admin tooling).
func (t *Table) FlushWAL() error {
	ws := t.walRT.Load()
	if ws == nil {
		return nil
	}
	return t.flushOnce(ws)
}

// pinWALTruncateLocked suspends WAL truncation until the returned
// release func runs (idempotent): a backup holds the pin while it
// copies the WAL tail, so no tail blob is deleted mid-copy. Flushes
// keep running; only log reclamation waits, and releasing the last pin
// runs a best-effort catch-up truncation. Caller holds t.mu.
func (t *Table) pinWALTruncateLocked() func() {
	t.walPins++
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			t.walPins--
			stillPinned := t.walPins > 0
			watermark := t.flushedLSN
			t.mu.Unlock()
			if stillPinned {
				return
			}
			if ws := t.walRT.Load(); ws != nil {
				if err := ws.log.TruncateBelow(watermark); err != nil {
					lsmLog.Warn("catch-up WAL truncation failed",
						"table", t.Name(), "error", err)
				}
			}
		})
	}
}

// walTruncatePinned reports whether a backup currently pins the tail.
func (t *Table) walTruncatePinned() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.walPins > 0
}

// FlushedLSN returns the recovery watermark.
func (t *Table) FlushedLSN() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.flushedLSN
}

// MemRows returns the rows currently buffered in memtables (including
// sealed ones, excluding delete marks).
func (t *Table) MemRows() int {
	n := 0
	for _, m := range t.current().memtables() {
		n += m.Rows()
	}
	return n
}
