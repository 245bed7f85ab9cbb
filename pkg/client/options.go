package client

import "time"

// Option tunes one statement. Build them with the With* constructors
// and pass any number to Query / Exec / QueryStream:
//
//	res, err := c.Query(ctx, q,
//		client.WithTimeout(2*time.Second),
//		client.WithMaxParallelism(4),
//	)
//
// Functional options replaced the positional Options struct (PR 3)
// once it started accreting fields: call sites now name exactly the
// knobs they set, and new knobs never break existing callers. The
// Options struct is their resolved form.
type Option func(*Options)

// WithTimeout bounds the statement server-side (sent as timeout_ms
// and enforced inside the engine, queue wait included). Zero or
// negative means the session's statement_timeout.
func WithTimeout(d time.Duration) Option {
	return func(o *Options) { o.Timeout = d }
}

// WithMaxParallelism overrides per-query segment fan-out (0 =
// session, then engine default).
func WithMaxParallelism(n int) Option {
	return func(o *Options) { o.MaxParallelism = n }
}

// WithTraceID correlates the statement with server-side logs and
// /debug/traces ("" = the client mints one per statement). Whatever
// ID is used — caller-supplied or minted — is sent as X-BH-Trace-Id
// on EVERY retry attempt of the statement, surfaces on the Result,
// and rides any returned error (see TraceID).
func WithTraceID(id string) Option {
	return func(o *Options) { o.TraceID = id }
}

// resolve folds a list of options into the resolved Options struct.
func resolve(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}
