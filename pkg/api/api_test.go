package api

import (
	"encoding/json"
	"testing"
)

// TestRequestShape pins the request JSON field names: these are the
// wire contract every deployed client and server depends on, so a
// rename must fail a test, not a production rollout.
func TestRequestShape(t *testing.T) {
	b, err := json.Marshal(QueryRequest{
		V: Version, Query: "SELECT 1", TimeoutMS: 250, MaxParallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"query":"SELECT 1","timeout_ms":250,"max_parallelism":4}`
	if string(b) != want {
		t.Fatalf("request shape drifted:\n got %s\nwant %s", b, want)
	}
	// Optional fields must stay omitted when zero: a pre-versioned
	// request (v absent) and a versioned one must be byte-identical
	// apart from the new field.
	b, _ = json.Marshal(QueryRequest{Query: "SELECT 1"})
	if string(b) != `{"query":"SELECT 1"}` {
		t.Fatalf("zero-valued optional fields leaked: %s", b)
	}
}

// TestResponseShape pins the response JSON field names.
func TestResponseShape(t *testing.T) {
	b, err := json.Marshal(QueryResponse{
		Columns: []string{"id"}, Rows: [][]any{{int64(7)}},
		RowCount: 1, ElapsedMS: 1.5, TraceID: "c1de2026abcd0001",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"columns":["id"],"rows":[[7]],"row_count":1,"elapsed_ms":1.5,"trace_id":"c1de2026abcd0001"}`
	if string(b) != want {
		t.Fatalf("response shape drifted:\n got %s\nwant %s", b, want)
	}
}

func TestErrorBodyShape(t *testing.T) {
	b, err := json.Marshal(ErrorBody{Error: WireError{
		Code: CodeShed, Message: "queue full", Retryable: true, TraceID: "c1de2026abcd0001",
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":{"code":"SHED","message":"queue full","retryable":true,"trace_id":"c1de2026abcd0001"}}`
	if string(b) != want {
		t.Fatalf("error shape drifted:\n got %s\nwant %s", b, want)
	}
}

func TestRetryable(t *testing.T) {
	for code, want := range map[string]bool{
		CodeShed: true, CodeDraining: true,
		CodeTimeout: false, CodeCanceled: false, CodeUnknownTable: false,
		CodePlan: false, CodeBadRequest: false, CodeSession: false,
		CodeInternal: false,
	} {
		if got := Retryable(code); got != want {
			t.Errorf("Retryable(%s) = %t, want %t", code, got, want)
		}
	}
}

func TestStreamFrames(t *testing.T) {
	b, _ := json.Marshal(StreamHeader{Columns: []string{"id"}, TraceID: "c1de2026abcd0001"})
	if string(b) != `{"columns":["id"],"trace_id":"c1de2026abcd0001"}` {
		t.Fatalf("stream header drifted: %s", b)
	}
	b, _ = json.Marshal(StreamTrailer{Done: true, RowCount: 3, ElapsedMS: 0.5})
	if string(b) != `{"done":true,"row_count":3,"elapsed_ms":0.5}` {
		t.Fatalf("stream trailer drifted: %s", b)
	}
}
