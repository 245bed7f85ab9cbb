package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"blendhouse/internal/batch"
	"blendhouse/internal/blobtier"
	"blendhouse/internal/cache"
	"blendhouse/internal/core"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/server"
	"blendhouse/internal/storage"
	"blendhouse/pkg/client"
)

// system is one built instance of the program under test: engine,
// store stack and — on serve workloads — the HTTP server and one
// pkg/client per load-generating connection, all in this process and
// talking over loopback.
type system struct {
	sp      *spec
	engine  *core.Engine
	mem     *storage.MemStore // the durable bytes, whatever is stacked above
	srv     *server.Server
	clients []*client.Client

	// cold_remote_tiered only
	remote    *storage.RemoteStore
	tier      *blobtier.TieredStore
	top       *timingStore
	blobBytes int64 // immutable blob bytes queries read (indexes and projected columns)
	tierBytes int64 // the tier's memory budget: half of blobBytes

	// bottom sits directly above the durable store on every workload
	// (above the RemoteStore on the cold one), so bytes written per user
	// byte and time spent in storage are read the same way everywhere.
	bottom       *timingStore
	loadPutBytes int64 // bytes set-up wrote to the durable store
}

// engineConfig mirrors openEngine in cmd/blendhouse/main.go: column
// cache at its default, semantic fraction 0.5, auto-index, WAL on,
// four storage attempts, every statement traced into the ring. The
// shell ships with batching off, `serve` with batching on + adaptive.
//
// flushInterval is the one departure: the read-only workloads load
// with the timed flush disabled (an hour) and cut segments with
// explicit FlushWAL calls, because a 2 s tick landing mid-load would
// make the segment count — and so every number after it — depend on
// how fast set-up happened to run. ingest_query_serve keeps the
// shipped policy (8192 rows / 2 s) untouched.
func engineConfig(store storage.BlobStore, sp *spec, traceSample int) core.Config {
	cc := cache.DefaultColumnCacheConfig()
	wal := &lsm.WALConfig{FlushInterval: time.Hour}
	if sp.ingest {
		wal = &lsm.WALConfig{}
	}
	cfg := core.Config{
		Store:            store,
		ColumnCache:      &cc,
		SemanticFraction: 0.5,
		AutoIndex:        true,
		WAL:              wal,
		Retry:            &storage.RetryConfig{MaxAttempts: 4},
		TraceSample:      traceSample,
	}
	if sp.serve {
		cfg.Batch = &batch.Config{Adaptive: true}
	}
	return cfg
}

// configureLogging applies the shipped log level of the mode the
// workload mirrors (shell: warn, serve: info — so the per-request
// access log line is formatted as in production) with the bytes
// discarded instead of written to the benchmark's stderr.
func configureLogging(sp *spec) error {
	lvl := slog.LevelWarn
	if sp.serve {
		lvl = slog.LevelInfo
	}
	return obs.ConfigureLogging(lvl, "text", io.Discard)
}

// build is the timed set-up: everything a user would wait for between
// an empty store and a system answering queries.
func build(in *inputs, between func()) (*system, error) {
	sp := in.sp
	sys := &system{sp: sp, mem: storage.NewMemStore()}
	ctx := context.Background()
	sys.bottom = newTimingStore("storage", sys.mem)
	eng, err := core.New(engineConfig(sys.bottom, sp, 1))
	if err != nil {
		return nil, err
	}
	sys.engine = eng
	if _, err := eng.Exec(ctx, in.ddl); err != nil {
		return nil, err
	}
	for _, stmts := range in.loads {
		for _, s := range stmts {
			between()
			if _, err := eng.Exec(ctx, s); err != nil {
				return nil, err
			}
		}
		between()
		if err := eng.Table(tableName).FlushWAL(); err != nil {
			return nil, err
		}
	}
	if got := eng.Table(tableName).SegmentCount(); got != sp.segments {
		return nil, fmt.Errorf("set-up cut %d segments, want %d", got, sp.segments)
	}
	sys.loadPutBytes = sys.bottom.counts().putBytes

	if sp.cold {
		// The cold compute node: a fresh engine over the same bytes, now
		// 1 ms away, with a blob cache half the size of what it will read.
		eng.Close()
		if sys.blobBytes, err = queryBlobBytes(sys.mem); err != nil {
			return nil, err
		}
		sys.tierBytes = sys.blobBytes / 2
		remote := storage.NewRemoteStore(sys.mem, storage.RemoteConfig{
			OpLatency: time.Millisecond, BytesPerSecond: 1 << 30,
		})
		sys.bottom = newTimingStore("storage", remote)
		// shipped order: tier over retries over the store
		retry := storage.NewRetryStore(sys.bottom, storage.RetryConfig{MaxAttempts: 4})
		tier, err := blobtier.NewTiered(retry, blobtier.Config{MemBytes: sys.tierBytes})
		if err != nil {
			return nil, err
		}
		sys.top = newTimingStore("blobtier", tier)
		cfg := engineConfig(sys.top, sp, 1)
		cfg.Retry = nil // already inside the stack, below the tier
		if sys.engine, err = core.New(cfg); err != nil {
			return nil, err
		}
	}

	if sp.serve {
		// serve defaults: admission 2×GOMAXPROCS, queue 4× that
		sys.srv, err = server.New(server.Config{Engine: sys.engine, Addr: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		if err := sys.srv.Start(); err != nil {
			return nil, err
		}
		conns := sp.callers
		if sp.ingest {
			conns++ // the writer's own connection, last
		}
		for i := 0; i < conns; i++ {
			c, err := client.New(client.Config{BaseURL: "http://" + sys.srv.Addr()})
			if err != nil {
				return nil, err
			}
			sys.clients = append(sys.clients, c)
		}
	}
	return sys, nil
}

// queryBlobBytes sums the immutable blobs a query can read: what the
// tier may cache (everything but manifests, WAL and delete bitmaps)
// less the raw vector column, which only flushes and compactions read
// — queries get their vectors from the index blob. Sizing the tier
// against bytes no query touches would leave it never evicting.
func queryBlobBytes(st storage.BlobStore) (int64, error) {
	return sumBytes(st, append([]string{"col_v.bin"}, blobtier.DefaultSkipSubstrings...))
}

// storeBytes is every byte the table occupies in the durable store.
func storeBytes(st storage.BlobStore) (int64, error) { return sumBytes(st, nil) }

// sumBytes adds up the sizes of all keys containing none of skip.
func sumBytes(st storage.BlobStore, skip []string) (int64, error) {
	keys, err := st.List("")
	if err != nil {
		return 0, err
	}
	var total int64
next:
	for _, k := range keys {
		for _, sub := range skip {
			if strings.Contains(k, sub) {
				continue next
			}
		}
		n, err := st.Size(k)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// close stops everything build started and waits for it.
func (s *system) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		_ = s.srv.Drain() // nothing is in flight; the error is only a late drain
	}
	s.engine.Close()
}

// response is a query result in the form both paths share.
type response struct {
	rows      [][]any
	elapsedMS float64 // server-side wall, serve workloads only
}

// query issues one statement the way the workload's callers do:
// through connection conn of the client on serve workloads, straight
// into the engine otherwise; a cold compute node first forgets its
// local index handles (the exp_tier regime).
func (s *system) query(ctx context.Context, conn int, sql string) (response, error) {
	if s.sp.serve {
		res, err := s.clients[conn].Query(ctx, sql)
		if err != nil {
			return response{}, err
		}
		return response{rows: res.Rows, elapsedMS: res.ElapsedMS}, nil
	}
	if s.sp.cold {
		s.engine.Executor(tableName).InvalidateLocalIndexes()
	}
	res, err := s.engine.Query(ctx, sql, core.QueryOptions{})
	if err != nil {
		return response{}, err
	}
	return response{rows: res.Rows}, nil
}
