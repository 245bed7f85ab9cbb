// Package core is BlendHouse's engine: it owns the table catalog over
// the shared blob store, parses and executes the SQL dialect, and
// wires the planner, executor and caches together into the system
// described in the paper's Figure 1/2.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"blendhouse/internal/batch"
	"blendhouse/internal/blobtier"
	"blendhouse/internal/cache"
	"blendhouse/internal/exec"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
	"blendhouse/pkg/api"

	// Register all pluggable index types with the virtual-index
	// registry; the engine itself never names a concrete type.
	_ "blendhouse/internal/index/diskann"
	_ "blendhouse/internal/index/flat"
	_ "blendhouse/internal/index/hnsw"
	_ "blendhouse/internal/index/ivf"
)

// Engine-level query metrics. The cache and planner counters are
// published as callback gauges in New (registerStatGauges) — the
// existing Stats() methods stay the single source of truth; the
// registry just reads them at snapshot time.
var (
	mQueries      = obs.Default().Counter("bh.query.total")
	mQueryLatency = obs.Default().Histogram("bh.query.latency")
	mSlowQueries  = obs.Default().Counter("bh.query.slow")
)

var coreLog = obs.Logger("core")

// mStmtLatency holds the per-statement-class latency histograms
// (bh.statement.latency.<kind>, one per sql.Kinds): per-type tail
// latency is what separates "inserts are slow" from "selects are
// slow" on a shared /metrics scrape.
var mStmtLatency = func() map[string]*obs.Histogram {
	m := make(map[string]*obs.Histogram, len(sql.Kinds))
	for _, k := range sql.Kinds {
		m[k] = obs.Default().Histogram("bh.statement.latency." + k)
	}
	return m
}()

// Config assembles an engine.
type Config struct {
	// Store is the shared (remote) blob store. Required.
	Store storage.BlobStore
	// Planner toggles optimizer features (CBO, plan cache,
	// short-circuit) for the ablation experiments.
	Planner plan.PlannerConfig
	// ColumnCache enables the adaptive column cache (READ_Opt); nil
	// disables it.
	ColumnCache *cache.ColumnCacheConfig
	// SemanticFraction enables semantic segment pruning on clustered
	// tables (0 disables; the paper's experiments use ~0.25).
	SemanticFraction float64
	// MaxParallelism bounds per-query segment fan-out in the executor
	// (0 = GOMAXPROCS). Individual queries can override it via
	// QueryOptions.MaxParallelism.
	MaxParallelism int
	// SegmentRows caps ingest segment size (default 8192).
	SegmentRows int
	// AutoIndex enables rule-based per-segment parameter selection.
	AutoIndex bool
	// CompactionInterval > 0 starts a background compaction loop per
	// table — the dedicated compaction VW of the paper's Figure 1,
	// collapsed into a goroutine for the single-process deployment.
	// Stop it with Engine.Close.
	CompactionInterval time.Duration
	// WAL tunes every table's write path (nil: lsm.WALConfig's
	// defaults). INSERT/DELETE group-commit to a durable per-table log
	// and become query-visible immediately via the memtable; a
	// background flusher cuts L0 segments. Engine.Close drains it.
	WAL *lsm.WALConfig
	// Retry, when non-nil, wraps Store in the fault-tolerance layer
	// (transient-error retries with jittered backoff + circuit breaker)
	// before anything reads or writes through it — WAL commits, flushes,
	// compaction, manifest writes and queries all inherit it.
	Retry *storage.RetryConfig
	// Chaos additionally slips a seeded fault injector between the
	// retry layer and Store (transient failure rate
	// storage.ChaosErrRate) — smoke-testing that acked⇒durable holds
	// when every operation can fail. Implies a default Retry when none
	// is set.
	Chaos bool
	// Tier, when non-nil, layers the storage-proxy cache
	// (blobtier.TieredStore: memory LRU → local-disk spill) over the
	// fault-tolerance stack, so hot segment blobs never pay the remote
	// round trip twice. Zero call-site changes: everything the engine
	// reads or writes goes through it.
	Tier *blobtier.Config
	// Backup configures BACKUP/RESTORE statements: Key is the default
	// destination encryption secret (a per-statement WITH KEY
	// overrides it), OpenDest resolves a destination string to a blob
	// store (default: an FSStore rooted at the path; tests inject
	// shared MemStores).
	Backup BackupConfig
	Seed   int64
	// TraceSample records a full span tree for 1-in-N statements into
	// the process-wide trace ring (obs.Traces(), /debug/traces, SHOW
	// TRACES). 0 disables sampling (the zero-overhead default: untraced
	// statements keep the nil-*Trace discipline); 1 traces every
	// statement.
	TraceSample int
	// SlowQuery, when positive, logs any statement slower than it at
	// WARN (with its trace ID) and bumps bh.query.slow — independent of
	// trace sampling.
	SlowQuery time.Duration
	// Batch, when non-nil, enables the multi-query batching subsystem:
	// compatible queued SELECTs form shared-scan groups inside a short
	// formation window and walk each segment once for the whole group,
	// with results fanned back byte-identical to isolated execution.
	// See internal/batch.
	Batch *batch.Config
}

// Engine is a BlendHouse instance.
type Engine struct {
	cfg      Config
	planner  *plan.Planner
	colCache *cache.ColumnCache
	indexes  *lsm.IndexCache // every table's decoded index handles

	mu     sync.RWMutex
	tables map[string]*lsm.Table
	execs  map[string]*exec.Executor

	traces         obs.Sampler // 1-in-TraceSample statement tracing
	stopCompaction chan struct{}
	closeOnce      sync.Once

	// Wrapper handles kept for gauge registration: cfg.Store is the
	// outermost layer, so the retry store (breaker) and cache tier are
	// remembered here when configured.
	retryStore *storage.RetryStore
	tier       *blobtier.TieredStore

	// batcher is the multi-query batching scheduler (nil = disabled).
	batcher *batch.Scheduler

	// gauges are the engine's stat sources by metric name
	// (registerStatGauges).
	gauges map[string]func() int64
}

// New builds an engine, reopening any tables already present in the
// store's catalog namespace.
func New(cfg Config) (*Engine, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("core: Config.Store is required")
	}
	if cfg.WAL == nil {
		cfg.WAL = &lsm.WALConfig{}
	}
	// Fault-tolerance layering (outermost first): retries+breaker over
	// the fault injector over the real store. Wrapped before recovery
	// so even the catalog scan benefits.
	if cfg.Chaos {
		cfg.Store = storage.NewFaultStore(cfg.Store, storage.FaultConfig{
			Seed:    cfg.Seed + 0xc4a05,
			ErrRate: storage.ChaosErrRate,
		})
		if cfg.Retry == nil {
			rc := storage.RetryConfig{MaxAttempts: 6, Seed: cfg.Seed + 1}
			cfg.Retry = &rc
		}
	}
	var retryStore *storage.RetryStore
	if cfg.Retry != nil {
		retryStore = storage.NewRetryStore(cfg.Store, *cfg.Retry)
		cfg.Store = retryStore
	}
	// The cache tier sits on top of the whole fault-tolerance stack:
	// hits bypass retries entirely, and fills/write-throughs inherit
	// them.
	var tier *blobtier.TieredStore
	if cfg.Tier != nil {
		var err error
		tier, err = blobtier.NewTiered(cfg.Store, *cfg.Tier)
		if err != nil {
			return nil, err
		}
		cfg.Store = tier
	}
	e := &Engine{
		cfg:            cfg,
		planner:        plan.NewPlanner(cfg.Planner),
		tables:         map[string]*lsm.Table{},
		execs:          map[string]*exec.Executor{},
		stopCompaction: make(chan struct{}),
		retryStore:     retryStore,
		tier:           tier,
		indexes:        lsm.NewIndexCache(cfg.Store),
	}
	e.traces.Every = cfg.TraceSample
	if cfg.ColumnCache != nil {
		e.colCache = cache.NewColumnCache(*cfg.ColumnCache)
	}
	// Recover existing tables from manifests.
	names, err := lsm.Tables(cfg.Store)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		t, err := lsm.Open(cfg.Store, name)
		if err != nil {
			return nil, fmt.Errorf("core: recovering table %q: %w", name, err)
		}
		if err := e.registerTable(t); err != nil {
			return nil, fmt.Errorf("core: recovering table %q: %w", name, err)
		}
	}
	if cfg.Batch != nil {
		e.batcher = batch.New(*cfg.Batch, e.runBatchGroup)
	}
	e.registerStatGauges()
	return e, nil
}

// openEngines lists the open engines, oldest first. The process-wide
// stat gauges read the newest open engine with the source, SHOW METRICS
// its own engine's; Close takes an engine off the list, so the registry
// keeps no closed engine reachable.
var openEngines struct {
	sync.Mutex
	list []*Engine
}

// registerStatGauges publishes the engine's existing stat sources
// (column cache, planner, storage stack) as callback gauges: the
// counters keep living where they are, and the registry evaluates
// them only when a snapshot is taken — no second bookkeeping path.
func (e *Engine) registerStatGauges() {
	pl := e.planner
	e.gauges = map[string]func() int64{
		"bh.plan.cache.hits":     func() int64 { h, _, _ := pl.Stats(); return h },
		"bh.plan.cache.misses":   func() int64 { _, m, _ := pl.Stats(); return m },
		"bh.plan.short_circuits": func() int64 { _, _, s := pl.Stats(); return s },
	}
	if cc := e.colCache; cc != nil {
		e.gauges["bh.cache.column.hits"] = func() int64 { h, _, _ := cc.Stats(); return h }
		e.gauges["bh.cache.column.misses"] = func() int64 { _, m, _ := cc.Stats(); return m }
		e.gauges["bh.cache.column.bypasses"] = func() int64 { _, _, b := cc.Stats(); return b }
	}
	// Breaker state is this engine's store's, not a shared gauge written
	// by every RetryStore in the process. The tier may wrap the retry
	// store, so the handle kept at construction is used instead of
	// cfg.Store.
	rs := e.retryStore
	if rs == nil {
		rs, _ = e.cfg.Store.(*storage.RetryStore)
	}
	if rs != nil {
		e.gauges["bh.storage.breaker_state"] = func() int64 { return int64(rs.BreakerState()) }
	}
	if ts := e.tier; ts != nil {
		e.gauges["bh.storage.tier.mem_bytes"] = func() int64 { return ts.TierStats().MemBytes }
		e.gauges["bh.storage.tier.disk_bytes"] = func() int64 { return ts.TierStats().DiskBytes }
	}
	openEngines.Lock()
	openEngines.list = append(openEngines.list, e)
	openEngines.Unlock()
	for name := range e.gauges {
		obs.Default().RegisterFunc(name, func() int64 { return newestStat(name) })
	}
}

// newestStat evaluates the named stat gauge of the newest open engine
// that has it (0 when none does).
func newestStat(name string) int64 {
	openEngines.Lock()
	var fn func() int64
	for i := len(openEngines.list) - 1; i >= 0 && fn == nil; i-- {
		fn = openEngines.list[i].gauges[name]
	}
	openEngines.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

func (e *Engine) registerTable(t *lsm.Table) error {
	if err := t.EnableWAL(*e.cfg.WAL); err != nil {
		return err
	}
	e.mu.Lock()
	e.tables[t.Name()] = t
	frac := 0.0
	if t.Options().ClusterBuckets > 0 {
		frac = e.cfg.SemanticFraction
	}
	e.execs[t.Name()] = &exec.Executor{
		Table: t, Placement: e.indexes, ColCache: e.colCache,
		SemanticFraction: frac,
		MaxParallelism:   e.cfg.MaxParallelism,
		Stats:            &obs.ScanStats{},
	}
	e.mu.Unlock()
	if e.cfg.CompactionInterval > 0 {
		go e.compactionLoop(t)
	}
	return nil
}

// compactionLoop runs one compaction round per tick until the engine
// closes. A failed round is retried on the next tick.
func (e *Engine) compactionLoop(t *lsm.Table) {
	ticker := time.NewTicker(e.cfg.CompactionInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopCompaction:
			return
		case <-ticker.C:
			_, _ = t.CompactOnce(lsm.CompactionPolicy{})
		}
	}
}

// Close stops background compaction loops and drains every table's
// WAL: in-flight group commits land, the memtables flush into
// segments, and the logs truncate to empty. Safe to call multiple
// times; the engine remains usable for queries afterwards, and DML
// fails with lsm.ErrReadOnly.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		if e.batcher != nil {
			e.batcher.Close() // drain in-flight groups before WAL teardown
		}
		close(e.stopCompaction)
		e.mu.RLock()
		tables := make([]*lsm.Table, 0, len(e.tables))
		for _, t := range e.tables {
			tables = append(tables, t)
		}
		e.mu.RUnlock()
		for _, t := range tables {
			// Best-effort: a failed final flush leaves the rows in the
			// WAL, where the next Open replays them.
			_ = t.CloseWAL()
		}
		openEngines.Lock()
		openEngines.list = slices.DeleteFunc(openEngines.list, func(o *Engine) bool { return o == e })
		openEngines.Unlock()
	})
}

// Table returns a table handle, or nil.
func (e *Engine) Table(name string) *lsm.Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tables[name]
}

// Executor returns the table's executor (experiment hook).
func (e *Engine) Executor(name string) *exec.Executor {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.execs[name]
}

// Planner exposes the planner (for plan-cache stats in benchmarks).
func (e *Engine) Planner() *plan.Planner { return e.planner }

// Tables lists table names.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	return out
}

// QueryOptions tunes one statement execution.
type QueryOptions struct {
	// Timeout, when positive, bounds the statement with a derived
	// deadline; expiry surfaces as ErrTimeout.
	Timeout time.Duration
	// MaxParallelism overrides the engine's per-query segment fan-out
	// for this statement (0 = engine default).
	MaxParallelism int
	// QueueWait is how long the statement waited in the caller's
	// admission queue before reaching the engine; when tracing it
	// materializes as a "queue" span so tail-latency attribution
	// (queue vs exec vs storage) works from the span tree alone.
	QueueWait time.Duration
	// DisableBatch bypasses the batching scheduler for this statement.
	// The server sets it when it already admitted the statement itself
	// (session batching off, or batching disabled), so a query is never
	// gated twice.
	DisableBatch bool
}

// Exec parses and executes one SQL statement under ctx. DDL and DML
// return a single status row; SELECT returns its result set.
// Cancellation and deadline expiry surface as ErrCanceled/ErrTimeout.
func (e *Engine) Exec(ctx context.Context, src string) (*exec.Result, error) {
	return e.Query(ctx, src, QueryOptions{})
}

// Query is Exec with per-statement options (timeout, parallelism
// override). A trace on ctx (obs.WithTrace) records the statement's
// span tree and tallies. All statement errors are classified by the
// failure taxonomy of pkg/api (errors.go).
func (e *Engine) Query(ctx context.Context, src string, opts QueryOptions) (*exec.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, api.ContextErr(err)
	}
	st, err := sql.Parse(src)
	if err != nil {
		return nil, planErr(err)
	}
	kind := sql.Kind(st)

	// An untraced statement (sample = 0 or not selected) carries no
	// trace on ctx all the way down — the zero-allocation discipline.
	ctx, tr := e.traces.StartStatement(ctx, "query", kind, opts.QueueWait)
	start := obs.Now()

	es := tr.Span().Child("exec")
	res, qerr := e.dispatch(ctx, st, opts)
	es.End()
	qerr = api.ContextErr(qerr)
	dur := time.Since(start)
	if h := mStmtLatency[kind]; h != nil {
		h.Observe(dur)
	}

	slow := e.cfg.SlowQuery > 0 && dur >= e.cfg.SlowQuery
	if slow {
		mSlowQueries.Inc()
		attrs := []any{
			"statement", kind,
			"duration_ms", float64(dur.Microseconds()) / 1000,
			"query", obs.TruncateQuery(src),
		}
		if qerr != nil {
			attrs = append(attrs, "error", qerr.Error())
		}
		coreLog.WarnContext(ctx, "slow query", attrs...)
	}
	tr.EndStatement(kind, src, dur, qerr, slow)
	return res, qerr
}

// dispatch executes one parsed statement.
func (e *Engine) dispatch(ctx context.Context, st sql.Statement, opts QueryOptions) (*exec.Result, error) {
	switch s := st.(type) {
	case *sql.CreateTable:
		if err := e.createTable(s); err != nil {
			return nil, err
		}
		return statusResult("OK: created table " + s.Name), nil
	case *sql.DropTable:
		if err := e.dropTable(s.Name); err != nil {
			return nil, err
		}
		return statusResult("OK: dropped table " + s.Name), nil
	case *sql.Insert:
		n, err := e.insert(ctx, s)
		if err != nil {
			return nil, err
		}
		return statusResult(fmt.Sprintf("OK: inserted %d rows into %s", n, s.Table)), nil
	case *sql.Select:
		return e.query(ctx, s, opts)
	case *sql.ShowTables:
		return e.showTables(), nil
	case *sql.ShowMetrics:
		return e.showMetrics(), nil
	case *sql.ShowTraces:
		return showTraces(), nil
	case *sql.Explain:
		return e.explain(ctx, s, opts)
	case *sql.Describe:
		return e.describe(s.Name)
	case *sql.Delete:
		return e.delete(ctx, s)
	case *sql.Optimize:
		return e.optimize(s.Name)
	case *sql.Backup:
		return e.backup(ctx, s)
	case *sql.Restore:
		return e.restore(ctx, s)
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", st)
	}
}

// showTables lists the catalog with live row/segment counts.
func (e *Engine) showTables() *exec.Result {
	res := &exec.Result{Columns: []string{"table", "rows", "segments", "index"}}
	names := e.Tables()
	sort.Strings(names)
	for _, n := range names {
		t := e.Table(n)
		idx := "-"
		if t.Options().IndexColumn != "" {
			idx = fmt.Sprintf("%s(%s)", t.Options().IndexType, t.Options().IndexColumn)
		}
		res.Rows = append(res.Rows, []any{n, int64(t.Rows() + t.MemRows()), int64(t.SegmentCount()), idx})
	}
	return res
}

// describe renders a table's schema, index and partitioning.
func (e *Engine) describe(name string) (*exec.Result, error) {
	t := e.Table(name)
	if t == nil {
		return nil, unknownTableErr(name)
	}
	res := &exec.Result{Columns: []string{"column", "type", "extra"}}
	opts := t.Options()
	for _, c := range t.Schema().Columns {
		extra := ""
		if c.Name == opts.IndexColumn {
			extra = fmt.Sprintf("INDEX %s DIM=%d", opts.IndexType, c.Dim)
		}
		for _, pc := range opts.PartitionBy {
			if pc == c.Name {
				extra = strings.TrimSpace(extra + " PARTITION KEY")
			}
		}
		if t.Schema().OrderBy == c.Name {
			extra = strings.TrimSpace(extra + " ORDER BY")
		}
		res.Rows = append(res.Rows, []any{c.Name, c.Type.String(), extra})
	}
	if opts.ClusterBuckets > 0 {
		res.Rows = append(res.Rows, []any{"(clustering)", "", fmt.Sprintf("CLUSTER BY %s INTO %d BUCKETS", opts.IndexColumn, opts.ClusterBuckets)})
	}
	return res, nil
}

// delete marks rows deleted by key (multi-version path: delete bitmap
// now, physical removal at the next compaction). The delete record is
// durable before this acks.
func (e *Engine) delete(ctx context.Context, d *sql.Delete) (*exec.Result, error) {
	t := e.Table(d.Table)
	if t == nil {
		return nil, unknownTableErr(d.Table)
	}
	n, err := t.DeleteByKey(ctx, d.Column, d.Keys)
	if err != nil {
		return nil, e.writeErr(t, err)
	}
	return statusResult(fmt.Sprintf("OK: marked %d rows deleted in %s", n, d.Table)), nil
}

// optimize runs compaction to convergence (OPTIMIZE TABLE).
func (e *Engine) optimize(name string) (*exec.Result, error) {
	t := e.Table(name)
	if t == nil {
		return nil, unknownTableErr(name)
	}
	merged, err := t.CompactAll(lsm.CompactionPolicy{MinSegments: 2})
	if err != nil {
		return nil, err
	}
	return statusResult(fmt.Sprintf("OK: compacted %d segments in %s (now %d)", merged, name, t.SegmentCount())), nil
}

func statusResult(msg string) *exec.Result {
	return &exec.Result{Columns: []string{"status"}, Rows: [][]any{{msg}}}
}

// query plans and runs a SELECT.
func (e *Engine) query(ctx context.Context, sel *sql.Select, opts QueryOptions) (*exec.Result, error) {
	t := e.Table(sel.Table)
	if t == nil {
		return nil, unknownTableErr(sel.Table)
	}
	ph, err := e.planner.Plan(sel, t)
	if err != nil {
		return nil, planErr(err)
	}
	if e.batcher != nil && !opts.DisableBatch {
		return e.batchSubmit(ctx, t, ph, opts)
	}
	return e.runTraced(ctx, sel.Table, ph, opts)
}

// runTraced executes a planned query, feeding the engine-level query
// counter and latency histogram (traced when ctx carries a trace).
func (e *Engine) runTraced(ctx context.Context, table string, ph *plan.Physical, opts QueryOptions) (*exec.Result, error) {
	mQueries.Inc()
	start := obs.Now()
	res, err := e.Executor(table).RunWith(ctx, ph, exec.RunOptions{MaxParallelism: opts.MaxParallelism})
	mQueryLatency.Observe(time.Since(start))
	if errors.Is(err, exec.ErrInvalidQuery) {
		// Execution-time statement validation (unknown predicate
		// column, type mismatch) is the statement's fault: fold it into
		// the plan class so callers see a 4xx-style failure.
		err = planErr(err)
	}
	return res, err
}

// createTable maps the CREATE TABLE AST onto an LSM table.
func (e *Engine) createTable(ct *sql.CreateTable) error {
	if e.Table(ct.Name) != nil {
		return fmt.Errorf("core: table %q already exists", ct.Name)
	}
	schema := &storage.Schema{OrderBy: ct.OrderBy}
	for _, c := range ct.Columns {
		typ, err := storage.ParseColumnType(c.TypeName)
		if err != nil {
			return err
		}
		schema.Columns = append(schema.Columns, storage.ColumnDef{Name: c.Name, Type: typ})
	}
	opts := lsm.Options{
		Name: ct.Name, Schema: schema,
		PartitionBy:    ct.PartitionBy,
		ClusterBuckets: ct.ClusterBuckets,
		SegmentRows:    e.cfg.SegmentRows,
		AutoIndex:      e.cfg.AutoIndex,
		Seed:           e.cfg.Seed,
	}
	if len(ct.Indexes) > 1 {
		return fmt.Errorf("core: at most one vector index per table (got %d)", len(ct.Indexes))
	}
	if len(ct.Indexes) == 1 {
		idx := ct.Indexes[0]
		params, err := index.ParseKV(0, vec.L2, idx.Params)
		if err != nil {
			return err
		}
		opts.IndexColumn = idx.Column
		opts.IndexType = index.Type(idx.Kind)
		opts.IndexParams = params
		// The vector column's dimension comes from the index DIM.
		for i := range schema.Columns {
			if schema.Columns[i].Name == idx.Column {
				if schema.Columns[i].Type != storage.VectorType {
					return fmt.Errorf("core: INDEX %s is on non-vector column %q", idx.Name, idx.Column)
				}
				schema.Columns[i].Dim = params.Dim
			}
		}
	}
	for i := range schema.Columns {
		if schema.Columns[i].Type == storage.VectorType && schema.Columns[i].Dim == 0 {
			return fmt.Errorf("core: vector column %q needs an INDEX ... TYPE ...('DIM=n') to fix its dimension", schema.Columns[i].Name)
		}
	}
	t, err := lsm.Create(e.cfg.Store, opts)
	if err != nil {
		return err
	}
	e.registerTable(t)
	return nil
}

// dropTable removes the table from the catalog, then stops its write
// path and deletes its blobs.
func (e *Engine) dropTable(name string) error {
	e.mu.Lock()
	t, ok := e.tables[name]
	delete(e.tables, name)
	delete(e.execs, name)
	e.mu.Unlock()
	if !ok {
		return unknownTableErr(name)
	}
	return t.Drop()
}
