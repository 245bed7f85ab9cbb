package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Session holds per-connection execution settings, adjustable at
// runtime with SET. The server binds one Session to each client TCP
// connection (http.Server.ConnContext), so a client that reuses its
// connection — as pkg/client does — sees SET variables persist across
// statements exactly like a database session. The shell reuses the
// same type for its single implicit session.
//
// Supported variables:
//
//	SET statement_timeout = <ms>   (0 disables)
//	SET max_parallelism  = <n>     (0 = engine default)
//	SET batch            = on|off  (opt this session's SELECTs out of
//	                                the multi-query batching scheduler)
type Session struct {
	mu       sync.Mutex
	timeout  time.Duration
	maxPar   int
	batchOff bool
}

// NewSession builds a session whose statement timeout starts at the
// server's or shell's -timeout flag.
func NewSession(timeout time.Duration) *Session {
	return &Session{timeout: timeout}
}

// Batch reports whether the session participates in multi-query
// batching (default on; only meaningful on servers that enable it).
func (s *Session) Batch() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.batchOff
}

// Timeout returns the session statement timeout (0 = none).
func (s *Session) Timeout() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.timeout
}

// MaxParallelism returns the session fan-out override (0 = default).
func (s *Session) MaxParallelism() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxPar
}

// HandleSet intercepts a SET statement. It returns handled=false when
// stmt is not a SET (the statement then goes to the engine verbatim),
// and otherwise a confirmation message or an error for an unknown
// variable / bad value.
func (s *Session) HandleSet(stmt string) (handled bool, msg string, err error) {
	trimmed := strings.TrimSuffix(strings.TrimSpace(stmt), ";")
	fields := strings.Fields(trimmed)
	if len(fields) == 0 || !strings.EqualFold(fields[0], "SET") {
		return false, "", nil
	}
	rest := strings.TrimSpace(trimmed[len(fields[0]):])
	name, value, ok := strings.Cut(rest, "=")
	if !ok {
		return true, "", fmt.Errorf("session: SET wants <variable> = <value>")
	}
	name = strings.ToLower(strings.TrimSpace(name))
	value = strings.TrimSpace(value)
	switch name {
	case "statement_timeout":
		ms, err := strconv.ParseInt(value, 10, 64)
		if err != nil || ms < 0 {
			return true, "", fmt.Errorf("session: statement_timeout wants a non-negative integer (milliseconds), got %q", value)
		}
		s.mu.Lock()
		s.timeout = time.Duration(ms) * time.Millisecond
		s.mu.Unlock()
		if ms == 0 {
			return true, "OK: statement timeout disabled", nil
		}
		return true, fmt.Sprintf("OK: statement timeout set to %dms", ms), nil
	case "max_parallelism":
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return true, "", fmt.Errorf("session: max_parallelism wants a non-negative integer, got %q", value)
		}
		s.mu.Lock()
		s.maxPar = n
		s.mu.Unlock()
		if n == 0 {
			return true, "OK: max_parallelism reset to engine default", nil
		}
		return true, fmt.Sprintf("OK: max_parallelism set to %d", n), nil
	case "batch":
		var on bool
		switch strings.ToLower(value) {
		case "on", "1", "true":
			on = true
		case "off", "0", "false":
			on = false
		default:
			return true, "", fmt.Errorf("session: batch wants on or off, got %q", value)
		}
		s.mu.Lock()
		s.batchOff = !on
		s.mu.Unlock()
		if on {
			return true, "OK: multi-query batching enabled for this session", nil
		}
		return true, "OK: multi-query batching disabled for this session", nil
	default:
		return true, "", fmt.Errorf("session: unknown variable %q (supported: statement_timeout, max_parallelism, batch)", name)
	}
}
