package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"blendhouse/internal/core"
	"blendhouse/pkg/api"
	"blendhouse/pkg/client"
)

// TestEndToEndByteIdentical is the acceptance contract: a statement
// through client → server → engine returns results byte-identical to
// in-process Engine.Query. "Byte-identical" is checked on the
// canonical JSON encoding — the client decodes numbers as json.Number,
// so the wire text survives the round trip exactly.
func TestEndToEndByteIdentical(t *testing.T) {
	e := testEngine(t, 0)
	_, c := startServer(t, e, Config{})
	ctx := context.Background()

	queries := []string{
		testQuery(),
		"SHOW TABLES",
		"DESCRIBE items",
		"SELECT id, label FROM items WHERE label = 'l2' ORDER BY id LIMIT 7",
	}
	for _, q := range queries {
		inproc, err := e.Query(ctx, q, core.QueryOptions{})
		if err != nil {
			t.Fatalf("in-process %q: %v", q, err)
		}
		remote, err := c.Query(ctx, q)
		if err != nil {
			t.Fatalf("remote %q: %v", q, err)
		}

		wantCols, _ := json.Marshal(inproc.Columns)
		gotCols, _ := json.Marshal(remote.Columns)
		if !bytes.Equal(wantCols, gotCols) {
			t.Fatalf("%q columns differ:\n want %s\n got  %s", q, wantCols, gotCols)
		}
		want, _ := json.Marshal(inproc.Rows)
		got, _ := json.Marshal(remote.Rows)
		if !bytes.Equal(want, got) {
			t.Fatalf("%q rows differ:\n want %s\n got  %s", q, want, got)
		}

		// The streaming path must be byte-identical too.
		st, err := c.QueryStream(ctx, q)
		if err != nil {
			t.Fatalf("stream %q: %v", q, err)
		}
		var srows [][]any
		for {
			row, err := st.Next()
			if err != nil {
				break
			}
			srows = append(srows, row)
		}
		st.Close()
		if len(srows) != len(inproc.Rows) {
			t.Fatalf("%q streamed %d rows, want %d", q, len(srows), len(inproc.Rows))
		}
		sgot, _ := json.Marshal(srows)
		if len(srows) > 0 && !bytes.Equal(want, sgot) {
			t.Fatalf("%q streamed rows differ:\n want %s\n got  %s", q, want, sgot)
		}
	}
}

// TestEndToEndClientTimeout checks a client-set timeout propagates as
// a deadline into the engine: the statement fails with ErrTimeout in
// bounded time instead of running its full (seconds-long) course.
func TestEndToEndClientTimeout(t *testing.T) {
	e := testEngine(t, 5*time.Millisecond)
	_, c := startServer(t, e, Config{})

	start := time.Now()
	_, err := c.Query(context.Background(), testQuery(), client.WithTimeout(30*time.Millisecond))
	elapsed := time.Since(start)
	if !errors.Is(err, api.ErrTimeout) {
		t.Fatalf("want api.ErrTimeout, got %v", err)
	}
	// The deadline must cancel the engine's remote reads, not just the
	// HTTP response: the full scan would take far longer than this.
	if elapsed > 5*time.Second {
		t.Fatalf("timed-out query returned after %v", elapsed)
	}
}

// TestEndToEndContextCancel checks a canceled client context surfaces
// as ErrCanceled without waiting for the statement.
func TestEndToEndContextCancel(t *testing.T) {
	e := testEngine(t, 5*time.Millisecond)
	_, c := startServer(t, e, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, testQuery())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, api.ErrCanceled) {
			t.Fatalf("want api.ErrCanceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled query did not return within 5s")
	}
}

// TestPerRequestParallelismOverride drives max_parallelism through
// the wire and confirms results stay identical to the default (the
// PR 2 determinism contract, now across the network).
func TestPerRequestParallelismOverride(t *testing.T) {
	e := testEngine(t, 0)
	_, c := startServer(t, e, Config{})
	ctx := context.Background()

	base, err := c.Query(ctx, testQuery())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4, 16} {
		res, err := c.Query(ctx, testQuery(), client.WithMaxParallelism(par))
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		want, _ := json.Marshal(base.Rows)
		got, _ := json.Marshal(res.Rows)
		if !bytes.Equal(want, got) {
			t.Fatalf("par=%d rows differ from default", par)
		}
	}
}
