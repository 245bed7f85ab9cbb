package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"blendhouse/pkg/api"
)

// Stream iterates an NDJSON streaming result row by row, so arbitrary
// result sizes never materialize client-side. Always Close it.
type Stream struct {
	resp    *http.Response
	dec     *json.Decoder
	columns []string
	traceID string
	trailer *api.StreamTrailer
	err     error
}

// QueryStream executes one statement with a streaming NDJSON
// response. Retry semantics match Query (sheds are retried before the
// stream opens; once rows flow, failures surface on Next).
func (c *Client) QueryStream(ctx context.Context, query string, opts ...Option) (*Stream, error) {
	resp, traceID, err := c.doRetry(ctx, "/v1/query", query, resolve(opts), api.NDJSONContentType)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var hdr api.StreamHeader
	if err := dec.Decode(&hdr); err != nil {
		resp.Body.Close()
		return nil, withTraceID(fmt.Errorf("client: decoding stream header: %w", err), traceID)
	}
	if hdr.TraceID != "" {
		traceID = hdr.TraceID
	}
	return &Stream{resp: resp, dec: dec, columns: hdr.Columns, traceID: traceID}, nil
}

// Columns returns the result column names.
func (s *Stream) Columns() []string { return s.columns }

// TraceID returns the statement's trace ID.
func (s *Stream) TraceID() string { return s.traceID }

// Next returns the next row, or io.EOF after the final row (numeric
// values are json.Number). Any other error means the stream broke.
func (s *Stream) Next() ([]any, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.trailer != nil {
		return nil, io.EOF
	}
	var raw json.RawMessage
	if err := s.dec.Decode(&raw); err != nil {
		s.err = fmt.Errorf("client: stream truncated: %w", err)
		return nil, s.err
	}
	// Rows are arrays; the single object line is the trailer.
	if len(raw) > 0 && raw[0] == '[' {
		var row []any
		if err := unmarshalUseNumber(raw, &row); err != nil {
			s.err = fmt.Errorf("client: decoding row: %w", err)
			return nil, s.err
		}
		return row, nil
	}
	var tr api.StreamTrailer
	if err := unmarshalUseNumber(raw, &tr); err != nil {
		s.err = fmt.Errorf("client: decoding trailer: %w", err)
		return nil, s.err
	}
	s.trailer = &tr
	if tr.Error != nil {
		traceID := tr.Error.TraceID
		if traceID == "" {
			traceID = s.traceID
		}
		s.err = &APIError{StatusCode: http.StatusOK, Code: tr.Error.Code,
			Message: tr.Error.Message, Retryable: tr.Error.Retryable, TraceID: traceID}
		return nil, s.err
	}
	return nil, io.EOF
}

// RowCount reports the server's row count once the stream has drained
// cleanly (-1 before that).
func (s *Stream) RowCount() int {
	if s.trailer == nil || !s.trailer.Done {
		return -1
	}
	return s.trailer.RowCount
}

// Close releases the connection. Safe after any Next outcome.
func (s *Stream) Close() error { return s.resp.Body.Close() }

// unmarshalUseNumber is json.Unmarshal with UseNumber, keeping row
// values byte-faithful to the wire.
func unmarshalUseNumber(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	return dec.Decode(v)
}
