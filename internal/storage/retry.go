// Fault-tolerant storage: the paper's architecture rests on remote
// shared storage (§II-A), where transient faults — throttling, timeouts,
// connection resets — are the norm rather than the exception. RetryStore
// is the fault-tolerance layer every subsystem above the LSM shares: it
// classifies blob-store errors (IsTransient) and applies the shared
// policy of internal/retry — bounded jittered backoff for transient
// errors, no retry for permanent ones, and a per-backend circuit
// breaker (DESIGN decision 12).
package storage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blendhouse/internal/obs"
	"blendhouse/internal/retry"
)

// Fault-tolerance metrics (SHOW METRICS / the -debug-addr endpoint).
// (bh.storage.breaker_state is deliberately NOT a process-global gauge
// here: with several RetryStores alive — engine store plus test stores —
// a shared gauge would reflect whichever instance transitioned last.
// The engine publishes its own store's BreakerState() as a callback
// gauge instead; other instances read Stats()/BreakerState() directly.)
var (
	mRetries            = obs.Default().Counter("bh.storage.retries")
	mRetryExhausted     = obs.Default().Counter("bh.storage.retry_exhausted")
	mBreakerOpens       = obs.Default().Counter("bh.storage.breaker_opens")
	mBreakerShed        = obs.Default().Counter("bh.storage.breaker_shed")
	mBreakerTransitions = obs.Default().Counter("bh.storage.breaker_transitions")
)

var storageLog = obs.Logger("storage")

// ErrInvalidRange tags range-read validation failures (negative offset
// or length). It is permanent: retrying the same bad arguments can
// never succeed.
var ErrInvalidRange = errors.New("storage: invalid range")

// checkRange validates range-read arguments; every BlobStore
// implementation routes GetRange through it so the whole family agrees
// that a negative offset or length is a typed validation error, never a
// panic or a raw I/O error.
func checkRange(off, length int64) error {
	if off < 0 || length < 0 {
		return fmt.Errorf("%w: off=%d len=%d", ErrInvalidRange, off, length)
	}
	return nil
}

// TransientError marks an error as explicitly transient (retryable).
// The fault injector wraps its injected failures in it.
type TransientError struct{ Err error }

func (e *TransientError) Error() string { return e.Err.Error() }
func (e *TransientError) Unwrap() error { return e.Err }

// PermanentError marks an error as explicitly non-retryable,
// overriding the default-transient classification of unknown errors.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return e.Err.Error() }
func (e *PermanentError) Unwrap() error { return e.Err }

// IsTransient classifies an error for the retry layer. Permanent —
// never retried — are: missing keys (ErrNotFound), validation errors
// (ErrInvalidRange), and context cancellation/deadline (the caller
// already gave up). Everything else is treated as transient: unknown
// I/O errors from remote storage are usually throttling or network
// blips, and the retry budget bounds the cost of being wrong.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if IsNotFound(err) || errors.Is(err, ErrInvalidRange) {
		return false
	}
	var pe *PermanentError
	if errors.As(err, &pe) {
		return false
	}
	if isContextErr(err) {
		return false
	}
	return true
}

// isContextErr reports whether err is a context cancellation or
// deadline expiry: not retried (the caller gave up) and neutral to the
// breaker (retry.Neutral).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ErrBreakerOpen is returned (fast, without touching the backend) while
// the circuit breaker is open. It is transient: the cooldown expiring
// lets a probe through.
var ErrBreakerOpen = errors.New("storage: circuit breaker open")

// BreakerConfig tunes the per-backend circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive transient failures
	// that opens the circuit (default 8).
	FailureThreshold int
	// Cooldown is how long the circuit stays open before a half-open
	// probe is allowed (default 2s).
	Cooldown time.Duration
}

// noteTransition counts and logs one breaker edge, so an operator can
// reconstruct the breaker's full history (not just how often it
// opened).
func noteTransition(t retry.Transition) {
	if !t.Changed() {
		return
	}
	mBreakerTransitions.Inc()
	if t.To == retry.Open {
		mBreakerOpens.Inc()
		storageLog.Warn("breaker transition", "from", t.From.String(), "to", t.To.String(), "fails", t.Fails)
	} else {
		storageLog.Info("breaker transition", "from", t.From.String(), "to", t.To.String())
	}
}

// RetryConfig tunes the retry layer.
type RetryConfig struct {
	// MaxAttempts is the total number of tries per operation, first
	// attempt included (default 4; 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 5ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 250ms).
	MaxBackoff time.Duration
	// Seed makes the jitter sequence deterministic in tests (0 seeds
	// from the clock).
	Seed int64
	// Breaker tunes the circuit breaker.
	Breaker BreakerConfig
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 5 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 250 * time.Millisecond
	}
	if c.Breaker.FailureThreshold <= 0 {
		c.Breaker.FailureThreshold = 8
	}
	if c.Breaker.Cooldown <= 0 {
		c.Breaker.Cooldown = 2 * time.Second
	}
	return c
}

// RetryTally accumulates the retries charged to one query; attach it to
// the query context with WithRetryTally and the retry layer feeds it,
// which is how EXPLAIN ANALYZE shows per-query store_retries. All
// methods are nil-receiver-safe.
type RetryTally struct{ retries atomic.Int64 }

// Add records n retries.
func (t *RetryTally) Add(n int64) {
	if t != nil {
		t.retries.Add(n)
	}
}

// Retries reads the tally (0 on nil).
func (t *RetryTally) Retries() int64 {
	if t == nil {
		return 0
	}
	return t.retries.Load()
}

type retryTallyKey struct{}

// WithRetryTally attaches a per-query retry tally to ctx.
func WithRetryTally(ctx context.Context, t *RetryTally) context.Context {
	return context.WithValue(ctx, retryTallyKey{}, t)
}

// TallyFrom extracts the retry tally from ctx (nil when absent; nil is
// safe to use).
func TallyFrom(ctx context.Context) *RetryTally {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(retryTallyKey{}).(*RetryTally)
	return t
}

// RetryStats counts this store's retry activity (per-instance; the
// bh.storage.* metrics aggregate across instances).
type RetryStats struct {
	Retries, Exhausted, BreakerSheds int64
}

// RetryStore wraps a backing store with transient-error retries and a
// circuit breaker. It sits directly under the LSM: WAL commits,
// memtable flushes, compaction, manifest writes and query reads all
// inherit the same fault tolerance without per-subsystem retry loops.
type RetryStore struct {
	backing BlobStore
	cfg     RetryConfig
	br      *retry.Breaker

	rngMu sync.Mutex
	rng   *rand.Rand

	retries, exhausted, sheds atomic.Int64
}

// NewRetryStore wraps backing with the retry policy.
func NewRetryStore(backing BlobStore, cfg RetryConfig) *RetryStore {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &RetryStore{
		backing: backing,
		cfg:     cfg,
		br:      retry.NewBreaker(cfg.Breaker.FailureThreshold, cfg.Breaker.Cooldown, nil),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// BreakerState reports the circuit breaker's current position.
func (s *RetryStore) BreakerState() retry.State { return s.br.State() }

// Stats snapshots this instance's retry counters.
func (s *RetryStore) Stats() RetryStats {
	return RetryStats{
		Retries:      s.retries.Load(),
		Exhausted:    s.exhausted.Load(),
		BreakerSheds: s.sheds.Load(),
	}
}

// BreakerReporter is implemented by stores that expose a circuit
// breaker; the executor uses it to stamp breaker state onto query
// trace spans without knowing the concrete wrapper type.
type BreakerReporter interface {
	BreakerState() retry.State
}

// backoff is the shared backoff before retry #attempt (0-based), its
// jitter drawn from the store's seeded source.
func (s *RetryStore) backoff(attempt int) time.Duration {
	s.rngMu.Lock()
	u := s.rng.Float64()
	s.rngMu.Unlock()
	return retry.Backoff(s.cfg.BaseBackoff, s.cfg.MaxBackoff, attempt, u)
}

// do runs fn with the retry + breaker policy. ctx may be nil (write
// paths without contexts); a fired ctx stops both retries and backoff
// sleeps.
func (s *RetryStore) do(ctx context.Context, op string, fn func() error) error {
	var lastErr error
	for attempt := 0; attempt < s.cfg.MaxAttempts; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ok, t := s.br.Allow()
		noteTransition(t)
		if !ok {
			// Shed fast: the backend is known-down; don't stack timeouts.
			s.sheds.Add(1)
			mBreakerShed.Inc()
			if lastErr != nil {
				return fmt.Errorf("%w (op %s; last error: %v)", ErrBreakerOpen, op, lastErr)
			}
			return fmt.Errorf("%w (op %s)", ErrBreakerOpen, op)
		}
		err := fn()
		if err == nil || !IsTransient(err) {
			// Permanent errors prove the backend answered; the caller's
			// context firing mid-call proves nothing.
			o := retry.Success
			if isContextErr(err) {
				o = retry.Neutral
			}
			noteTransition(s.br.Record(o))
			return err
		}
		noteTransition(s.br.Record(retry.Failure))
		lastErr = err
		if attempt == s.cfg.MaxAttempts-1 {
			break
		}
		s.retries.Add(1)
		mRetries.Inc()
		TallyFrom(ctx).Add(1)
		if serr := retry.Sleep(ctx, s.backoff(attempt)); serr != nil {
			return serr
		}
	}
	s.exhausted.Add(1)
	mRetryExhausted.Inc()
	// ctx may be nil on write paths; slog substitutes Background itself.
	storageLog.WarnContext(ctx, "retry budget exhausted",
		"op", op, "attempts", s.cfg.MaxAttempts, "error", lastErr)
	return fmt.Errorf("storage: %s failed after %d attempts: %w", op, s.cfg.MaxAttempts, lastErr)
}

// Put implements BlobStore.
func (s *RetryStore) Put(key string, data []byte) error {
	return s.do(nil, "put "+key, func() error { return s.backing.Put(key, data) })
}

// Get implements BlobStore.
func (s *RetryStore) Get(key string) ([]byte, error) {
	return s.GetCtx(nil, key)
}

// GetCtx implements CtxReader: ctx bounds the backing read and every
// backoff sleep, and carries the per-query retry tally.
func (s *RetryStore) GetCtx(ctx context.Context, key string) ([]byte, error) {
	var out []byte
	err := s.do(ctx, "get "+key, func() error {
		var ferr error
		out, ferr = GetCtx(ctx, s.backing, key)
		return ferr
	})
	return out, err
}

// GetRange implements BlobStore.
func (s *RetryStore) GetRange(key string, off, length int64) ([]byte, error) {
	return s.GetRangeCtx(nil, key, off, length)
}

// GetRangeCtx implements CtxReader.
func (s *RetryStore) GetRangeCtx(ctx context.Context, key string, off, length int64) ([]byte, error) {
	if err := checkRange(off, length); err != nil {
		return nil, err
	}
	var out []byte
	err := s.do(ctx, "get_range "+key, func() error {
		var ferr error
		out, ferr = GetRangeCtx(ctx, s.backing, key, off, length)
		return ferr
	})
	return out, err
}

// Size implements BlobStore.
func (s *RetryStore) Size(key string) (int64, error) {
	var out int64
	err := s.do(nil, "size "+key, func() error {
		var ferr error
		out, ferr = s.backing.Size(key)
		return ferr
	})
	return out, err
}

// Delete implements BlobStore.
func (s *RetryStore) Delete(key string) error {
	return s.do(nil, "delete "+key, func() error { return s.backing.Delete(key) })
}

// List implements BlobStore.
func (s *RetryStore) List(prefix string) ([]string, error) {
	var out []string
	err := s.do(nil, "list "+prefix, func() error {
		var ferr error
		out, ferr = s.backing.List(prefix)
		return ferr
	})
	return out, err
}
