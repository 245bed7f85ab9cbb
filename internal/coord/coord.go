// Package coord is the scatter-gather coordinator: the cluster role
// behind `blendhouse coordinate -shards host:port,...`. It implements
// internal/server's Backend interface, so one server binary hosts
// either an engine (`serve`, the shard role) or this coordinator —
// sessions, admission control, deadlines, tracing and streaming are
// the same machinery either way.
//
// The coordinator owns no data. It places rows on shard-owned `serve`
// processes with the multi-probe consistent-hash ring of
// internal/hashring (the paper's segment-allocation algorithm, applied
// here to key→shard placement), splits INSERT/DELETE statements into
// per-shard legs, broadcasts DDL, and scatter-gathers SELECTs:
// every shard answers its local top-k and the coordinator merges with
// the same deterministic discipline as the PR 2 worker pool — distance
// ascending, ties broken on the canonical row text — so the merged
// result is byte-identical regardless of shard arrival order.
//
// Inter-node calls ride pkg/client, inheriting its retry policy
// (only never-executed failures retried), error taxonomy and trace
// propagation: the statement's trace ID from the client-facing request
// is forwarded on every shard leg, so one trace ID spans the
// coordinator and all its fan-out legs.
//
// Failure policy: each shard has a circuit breaker (internal/retry,
// DESIGN decision 12); legs to open-breaker shards are skipped. With
// Replicas copies per key, a query missing fewer than Replicas shards
// is still complete (every row has a surviving owner) and is served as
// such; beyond that the query fails closed with UNAVAILABLE unless the
// session opted in with SET allow_partial = on, in which case the
// result is served marked Partial.
package coord

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"blendhouse/internal/hashring"
	"blendhouse/internal/obs"
	"blendhouse/internal/retry"
	"blendhouse/pkg/api"
	"blendhouse/pkg/client"
)

var coordLog = obs.Logger("coord")

// Fan-out metrics (bh.coord.*), exposed on /metrics and /vars of the
// coordinator's debug endpoint alongside the bh.server.* family.
var (
	mStatements  = obs.Default().Counter("bh.coord.statements.total")
	mStmtErrs    = obs.Default().Counter("bh.coord.statements.errors")
	mPartial     = obs.Default().Counter("bh.coord.statements.partial")
	mLegs        = obs.Default().Counter("bh.coord.legs.total")
	mLegErrs     = obs.Default().Counter("bh.coord.legs.failed")
	mLegSkips    = obs.Default().Counter("bh.coord.legs.skipped")
	mBreakerTrip = obs.Default().Counter("bh.coord.breaker.opened")
	mMergedRows  = obs.Default().Counter("bh.coord.rows.merged")
	mLatency     = obs.Default().Histogram("bh.coord.latency")
	mLegLatency  = obs.Default().Histogram("bh.coord.leg.latency")
)

// Config assembles a Coordinator.
type Config struct {
	// Shards are the shard base URLs or host:port addresses (a missing
	// scheme defaults to http://). At least one is required.
	Shards []string
	// Replicas is how many shards each key is placed on (clamped to
	// [1, len(Shards)]). Replicas > 1 lets reads survive shard loss:
	// a query missing fewer than Replicas shards is still complete.
	Replicas int

	// MaxRetries / RetryBase tune the per-leg pkg/client retry policy.
	// The defaults (2 retries from 10ms, capped at 250ms) are tighter
	// than the client's own: a dead shard should trip the breaker
	// quickly, not stall every query behind long dial backoffs.
	MaxRetries int
	RetryBase  time.Duration

	// BreakerThreshold consecutive down-class leg failures open a
	// shard's breaker for BreakerCooldown (defaults 3, 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// TraceSample records a coordinator span tree (with one child span
	// per shard leg) for 1-in-N statements into the process trace ring.
	// 0 disables.
	TraceSample int
}

// shard is one member of the cluster: its placement name (the
// normalized base URL, which is also what the ring hashes), its client
// and its breaker.
type shard struct {
	name string
	cli  *client.Client
	brk  *retry.Breaker
}

// Coordinator routes statements across the shard set. It implements
// server.Backend. Safe for concurrent use.
type Coordinator struct {
	cfg      Config
	shards   []*shard
	byName   map[string]*shard
	ring     *hashring.Ring
	replicas int
	traceSeq atomic.Uint64
}

// New builds a coordinator over the configured shard set. It does not
// contact the shards: a shard that is down at startup is simply routed
// around (breaker + replicas) until it comes back.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("coord: Config.Shards is required (at least one shard address)")
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 10 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	c := &Coordinator{
		cfg:    cfg,
		byName: make(map[string]*shard, len(cfg.Shards)),
		ring:   hashring.New(),
	}
	for _, raw := range cfg.Shards {
		name := NormalizeShardAddr(raw)
		if name == "" {
			return nil, fmt.Errorf("coord: empty shard address in %v", cfg.Shards)
		}
		if _, dup := c.byName[name]; dup {
			return nil, fmt.Errorf("coord: duplicate shard address %s", name)
		}
		cli, err := client.New(client.Config{
			BaseURL:    name,
			MaxRetries: cfg.MaxRetries,
			RetryBase:  cfg.RetryBase,
			RetryMax:   250 * time.Millisecond,
		})
		if err != nil {
			return nil, fmt.Errorf("coord: shard %s: %w", name, err)
		}
		s := &shard{name: name, cli: cli, brk: retry.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil)}
		c.shards = append(c.shards, s)
		c.byName[name] = s
		c.ring.Add(name)
	}
	c.replicas = cfg.Replicas
	if c.replicas < 1 {
		c.replicas = 1
	}
	if c.replicas > len(c.shards) {
		c.replicas = len(c.shards)
	}
	return c, nil
}

// NormalizeShardAddr canonicalizes one shard address: trims space and
// trailing slashes and defaults the scheme to http://.
func NormalizeShardAddr(addr string) string {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// ParseShardList splits a comma-separated -shards flag value into
// normalized addresses.
func ParseShardList(list string) []string {
	var out []string
	for _, part := range strings.Split(list, ",") {
		if a := NormalizeShardAddr(part); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Replicas reports the effective placement copies per key.
func (c *Coordinator) Replicas() int { return c.replicas }

// ShardNames reports the normalized shard addresses in registration
// order.
func (c *Coordinator) ShardNames() []string {
	out := make([]string, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.name
	}
	return out
}

// Info implements server.Backend: the coordinator's /v1/info identity.
func (c *Coordinator) Info() api.NodeInfo {
	return api.NodeInfo{
		V:        api.Version,
		Role:     api.RoleCoordinator,
		Shards:   c.ShardNames(),
		Replicas: c.replicas,
	}
}

// Close releases the shard clients' idle connections.
func (c *Coordinator) Close() {
	for _, s := range c.shards {
		s.cli.Close()
	}
}

// sampleTrace decides 1-in-TraceSample coordinator tracing (0 = off).
func (c *Coordinator) sampleTrace() bool {
	n := c.cfg.TraceSample
	if n <= 0 {
		return false
	}
	if n == 1 {
		return true
	}
	return c.traceSeq.Add(1)%uint64(n) == 1
}

// truncateQuery bounds statement text retained in logs and the trace
// ring (same bound as the engine's).
func truncateQuery(s string) string {
	const max = 200
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}
