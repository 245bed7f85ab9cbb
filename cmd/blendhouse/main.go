// Command blendhouse is an interactive SQL shell (and one-shot SQL
// runner) over a BlendHouse engine, plus a network query server.
// State persists to a blob-store directory, so tables survive
// restarts:
//
//	blendhouse -data ./bhdata                # interactive shell
//	blendhouse -data ./bhdata -e "SELECT..." # one-shot statement
//	blendhouse -data ./bhdata -f setup.sql   # run a script
//	blendhouse serve -data ./bhdata -addr 127.0.0.1:8428
//	                                         # HTTP query server (pkg/client)
//	blendhouse backup -data ./bhdata -table t -to ./bk
//	blendhouse restore -data ./bhdata -table t -from ./bk
//
// The dialect is the paper's (Example 1): CREATE TABLE with INDEX ...
// TYPE HNSW('DIM=...'), PARTITION BY, CLUSTER BY ... INTO n BUCKETS;
// INSERT ... VALUES / CSV INFILE; SELECT ... WHERE ... ORDER BY
// L2Distance(col, [..]) LIMIT k [SETTINGS ef_search=..].
//
// Serve mode hosts POST /v1/query and /v1/exec (see internal/server)
// with admission control and per-connection SET sessions, drains
// gracefully on SIGTERM/SIGINT, and can host the debug endpoint
// (-debug-addr) under the same lifecycle. Any other first argument
// that is not a flag is an error (exit 2), not a shell.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blendhouse/internal/batch"
	"blendhouse/internal/cache"
	"blendhouse/internal/core"
	"blendhouse/internal/exec"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/server"
	"blendhouse/internal/storage"
	"blendhouse/pkg/api"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "backup":
			runBackup(os.Args[2:])
			return
		case "restore":
			runRestore(os.Args[2:])
			return
		}
	}
	var (
		oneShot = flag.String("e", "", "execute one statement and exit")
		script  = flag.String("f", "", "execute statements from a file (semicolon-separated)")
	)
	ef := registerEngineFlags(flag.CommandLine, false)
	flag.Parse()
	// flag.Parse stops at the first non-flag, so a mistyped mode
	// ("sevre -data x") would otherwise drop every flag after it and
	// open a shell on the default data directory.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "blendhouse: unknown mode %q (modes: serve, backup, restore; no mode runs the shell)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	configureLogging(ef.logLevel, ef.logFormat)

	// The debug endpoint binds synchronously so a bad address fails the
	// process here instead of dying silently inside a goroutine, and it
	// drains cleanly when the shell exits.
	var debug *server.DebugServer
	if ef.debugAddr != "" {
		var err error
		if debug, err = server.NewDebug(ef.debugAddr); err != nil {
			fatal(err)
		}
		defer debug.Drain(time.Second)
	}

	engine, err := ef.openEngine()
	if err != nil {
		fatal(err)
	}
	defer engine.Close() // drain the WAL flushers so acked rows reach segments

	sess := &session{engine: engine, vars: server.NewSession(ef.timeout)}
	switch {
	case *oneShot != "":
		if err := sess.runStatement(*oneShot); err != nil {
			fatalStmt(err)
		}
	case *script != "":
		data, err := os.ReadFile(*script)
		if err != nil {
			fatal(err)
		}
		for _, stmt := range splitStatements(string(data)) {
			fmt.Printf("> %s\n", firstLine(stmt))
			if err := sess.runStatement(stmt); err != nil {
				fatalStmt(err)
			}
		}
	default:
		sess.repl()
	}
}

// engineFlags holds the flags the shell and serve modes share: the
// data directory, the engine's settings, logging, the debug endpoint
// and the storage stack.
type engineFlags struct {
	dataDir, debugAddr, logLevel, logFormat                 string
	timeout, flushInterval, backoff, slowQuery, batchWindow time.Duration
	maxPar, flushRows, retries, traceSample, batchGroup     int
	chaos, batch, batchAdaptive                             bool
	store                                                   *storeFlags
}

// registerEngineFlags installs the shared flags on fs and returns the
// struct their values land in. Two defaults follow the mode: serve
// batches concurrent SELECTs and logs at info, the single-session
// shell does neither and logs at warn.
func registerEngineFlags(fs *flag.FlagSet, serve bool) *engineFlags {
	ef := &engineFlags{store: registerStoreFlags(fs)}
	logLevel, batchHelp := "warn", "multi-query batching: group compatible concurrent SELECTs into shared segment scans (pointless in a single-session shell, hence off)"
	if serve {
		logLevel, batchHelp = "info", "multi-query batching: group compatible concurrent SELECTs into shared segment scans, one admission slot per group (sessions opt out with SET batch = off)"
	}
	fs.StringVar(&ef.dataDir, "data", "./bhdata", "blob store directory")
	fs.StringVar(&ef.debugAddr, "debug-addr", "", "serve /metrics, /vars and pprof on this address (e.g. localhost:6060)")
	fs.DurationVar(&ef.timeout, "timeout", 0, "per-statement timeout (0 = none); sessions adjust it with SET statement_timeout = <ms>")
	fs.IntVar(&ef.maxPar, "max-parallelism", 0, "per-query segment fan-out (0 = GOMAXPROCS)")
	fs.IntVar(&ef.flushRows, "flush-rows", 0, "seal and flush the memtable after this many rows (0 = default)")
	fs.DurationVar(&ef.flushInterval, "flush-interval", 0, "background flush period for partial memtables (0 = default)")
	fs.IntVar(&ef.retries, "store-retries", 4, "attempts per storage operation for transient errors (1 = no retries, 0 = disable the fault-tolerance layer)")
	fs.DurationVar(&ef.backoff, "store-backoff", 0, "base backoff before the first storage retry (0 = default 5ms; grows exponentially, jittered)")
	fs.BoolVar(&ef.chaos, "chaos", false, "inject seeded transient storage faults under the retry layer (smoke-testing fault tolerance)")
	fs.StringVar(&ef.logLevel, "log-level", logLevel, "structured log level: debug|info|warn|error")
	fs.StringVar(&ef.logFormat, "log-format", "text", "structured log format: text|json")
	fs.IntVar(&ef.traceSample, "trace-sample", 1, "record a span tree for 1-in-N statements into the trace ring (SHOW TRACES, /debug/traces; 0 = off)")
	fs.DurationVar(&ef.slowQuery, "slow-query", 0, "log statements slower than this at WARN with their trace ID (0 = off)")
	fs.BoolVar(&ef.batch, "batch", serve, batchHelp)
	fs.DurationVar(&ef.batchWindow, "batch-window", 0, "batch formation window (0 = default 2ms)")
	fs.IntVar(&ef.batchGroup, "batch-max-group", 0, "max queries per shared-scan group (0 = default 16)")
	fs.BoolVar(&ef.batchAdaptive, "batch-adaptive", true, "batched-vs-solo per query via the cost model over observed per-segment stats (off = always batch compatible queries)")
	return ef
}

// openEngine builds the standard shell/server engine over a
// filesystem store, with the storage fault-tolerance layer (and
// optionally chaos injection) between the engine and the disk, and —
// when the tier flags are set — the tiered blob cache outermost.
// -store-retries 0 drops the retry layer, and -batch off the batching
// scheduler.
func (ef *engineFlags) openEngine() (*core.Engine, error) {
	store, err := ef.store.openDataStore(ef.dataDir)
	if err != nil {
		return nil, err
	}
	ccCfg := cache.DefaultColumnCacheConfig()
	cfg := core.Config{
		Store:            store,
		ColumnCache:      &ccCfg,
		SemanticFraction: 0.5,
		AutoIndex:        true,
		MaxParallelism:   ef.maxPar,
		Chaos:            ef.chaos,
		TraceSample:      ef.traceSample,
		SlowQuery:        ef.slowQuery,
		Tier:             ef.store.tierConfig(ef.dataDir),
		Backup:           core.BackupConfig{Key: ef.store.backupKey},
		WAL: &lsm.WALConfig{
			MaxMemRows:    ef.flushRows,
			FlushInterval: ef.flushInterval,
			OnError: func(err error) {
				fmt.Fprintln(os.Stderr, "wal flush:", err)
			},
		},
	}
	if ef.retries > 0 {
		cfg.Retry = &storage.RetryConfig{MaxAttempts: ef.retries, BaseBackoff: ef.backoff}
	}
	if ef.batch {
		cfg.Batch = &batch.Config{Window: ef.batchWindow, MaxGroup: ef.batchGroup, Adaptive: ef.batchAdaptive}
	}
	return core.New(cfg)
}

// configureLogging applies the -log-level/-log-format flags
// process-wide (both shell and serve mode call it before touching the
// engine, so recovery and WAL replay already log structured).
func configureLogging(level, format string) {
	lvl, err := obs.ParseLogLevel(level)
	if err != nil {
		fatal(err)
	}
	if err := obs.ConfigureLogging(lvl, format, os.Stderr); err != nil {
		fatal(err)
	}
}

// runServe hosts the network query server (and optionally the debug
// endpoint) under one lifecycle: SIGTERM/SIGINT starts a graceful
// drain — stop accepting, finish in-flight statements up to
// -drain-timeout — and the process exits 0 only on a clean drain.
func runServe(args []string) {
	fs := flag.NewFlagSet("blendhouse serve", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8428", "query API listen address (POST /v1/query, /v1/exec)")
		maxConc      = fs.Int("max-concurrent", 0, "statements executing at once (0 = 2×GOMAXPROCS)")
		maxQueue     = fs.Int("max-queue", 0, "admission wait-queue bound; beyond it statements shed with 429 (0 = 4×max-concurrent, negative = no queue)")
		queueTimeout = fs.Duration("queue-timeout", 0, "shed statements queued longer than this (0 = wait for the statement deadline)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "grace for in-flight statements on shutdown")
	)
	ef := registerEngineFlags(fs, true)
	fs.Parse(args)
	configureLogging(ef.logLevel, ef.logFormat)

	engine, err := ef.openEngine()
	if err != nil {
		fatal(err)
	}
	srv, err := server.New(server.Config{
		Engine: engine,
		Addr:   *addr,
		Admission: server.AdmissionConfig{
			MaxConcurrent: *maxConc,
			MaxQueue:      *maxQueue,
			QueueTimeout:  *queueTimeout,
		},
		DrainTimeout:   *drainTimeout,
		SessionTimeout: ef.timeout,
	})
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	var debug *server.DebugServer
	debugErr := make(<-chan error) // nil-like: blocks forever when unused
	if ef.debugAddr != "" {
		if debug, err = server.NewDebug(ef.debugAddr); err != nil {
			fatal(err)
		}
		debugErr = debug.Err()
		fmt.Printf("blendhouse debug endpoint on http://%s\n", debug.Addr())
	}
	adm := srv.Admission()
	fmt.Printf("blendhouse serving on http://%s (max-concurrent=%d, max-queue=%d)\n",
		srv.Addr(), adm.Capacity(), adm.QueueBound())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Printf("received %v, draining (up to %v)...\n", sig, *drainTimeout)
		code := 0
		if err := srv.Drain(); err != nil {
			fmt.Fprintln(os.Stderr, "drain:", err)
			code = 1
		}
		if debug != nil {
			if err := debug.Drain(time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "debug drain:", err)
				code = 1
			}
		}
		engine.Close()
		if code == 0 {
			fmt.Println("drained cleanly")
		}
		os.Exit(code)
	case err := <-srv.Err():
		fatal(fmt.Errorf("query server failed: %w", err))
	case err := <-debugErr:
		fatal(fmt.Errorf("debug server failed: %w", err))
	}
}

// session holds the shell's single implicit session: the same SET
// variables (statement_timeout, max_parallelism) a network client gets
// per connection, handled by the same code.
type session struct {
	engine *core.Engine
	vars   *server.Session
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

// fatalStmt exits with the statement error classified by the engine
// taxonomy (timeout vs cancel vs unknown table vs plan error).
func fatalStmt(err error) {
	fmt.Fprintln(os.Stderr, classifyError(err))
	os.Exit(1)
}

// repl reads semicolon-terminated statements interactively.
func (sess *session) repl() {
	engine := sess.engine
	fmt.Println("BlendHouse shell — end statements with ';'; also: SHOW TABLES, DESCRIBE t, SET statement_timeout = <ms>, SET max_parallelism = <n>, DELETE FROM t WHERE id IN (...), OPTIMIZE TABLE t; \\q quits")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var buf strings.Builder
	fmt.Print("blendhouse> ")
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 {
			switch trimmed {
			case "\\q", "exit", "quit":
				return
			case "\\d":
				for _, t := range engine.Tables() {
					fmt.Println(" ", t)
				}
				fmt.Print("blendhouse> ")
				continue
			case "":
				fmt.Print("blendhouse> ")
				continue
			}
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			if err := sess.runStatement(buf.String()); err != nil {
				fmt.Println(classifyError(err))
			}
			buf.Reset()
			fmt.Print("blendhouse> ")
		} else {
			fmt.Print("        ... ")
		}
	}
}

// runStatement executes one statement and prints the result table.
// Session settings (SET statement_timeout / max_parallelism) are
// intercepted before reaching the engine.
func (sess *session) runStatement(stmt string) error {
	stmt = strings.TrimSpace(stmt)
	if stmt == "" {
		return nil
	}
	if handled, msg, err := sess.vars.HandleSet(stmt); handled {
		if err != nil {
			return err
		}
		fmt.Println(msg)
		return nil
	}
	start := obs.Now()
	res, err := sess.engine.Query(context.Background(), stmt, core.QueryOptions{
		Timeout:        sess.vars.Timeout(),
		MaxParallelism: sess.vars.MaxParallelism(),
		DisableBatch:   !sess.vars.Batch(),
	})
	if err != nil {
		return err
	}
	printResult(res)
	fmt.Printf("%d rows in %.3f ms\n", len(res.Rows), float64(time.Since(start).Microseconds())/1000)
	return nil
}

// classifyError prefixes an error with its failure class, the wire
// code of the taxonomy's table in lower case ("timeout: ", "plan: ",
// "unknown table: "; "internal: " for an error of no class), so a
// shell user tells a timeout from a cancel from a bad statement at a
// glance.
func classifyError(err error) string {
	_, code := api.StatusFor(err)
	return strings.ToLower(strings.ReplaceAll(code, "_", " ")) + ": " + err.Error()
}

func printResult(res *exec.Result) {
	if len(res.Columns) == 0 {
		return
	}
	widths := make([]int, len(res.Columns))
	cells := make([][]string, len(res.Rows))
	for i, h := range res.Columns {
		widths[i] = len(h)
	}
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := formatValue(v)
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	printRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Printf("%-*s", widths[i], c)
		}
		fmt.Println()
	}
	printRow(res.Columns)
	sep := make([]string, len(res.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range cells {
		printRow(row)
	}
}

func formatValue(v any) string {
	switch x := v.(type) {
	case []float32:
		if len(x) > 4 {
			return fmt.Sprintf("[%g %g ... +%d]", x[0], x[1], len(x)-2)
		}
		return fmt.Sprint(x)
	case float64:
		return fmt.Sprintf("%.6g", x)
	default:
		return fmt.Sprint(v)
	}
}

func splitStatements(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ";") {
		if strings.TrimSpace(part) != "" {
			out = append(out, part+";")
		}
	}
	return out
}

func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}
