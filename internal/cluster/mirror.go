package cluster

import (
	"context"
	"fmt"

	"blendhouse/internal/lsm"
)

// MirroredVW implements paper §II-E's "multiple VW replicas for
// critical workloads": two (or more) independently provisioned virtual
// warehouses over the same shared storage, where a query failing on
// the primary — all its workers down, mid-scale chaos, network
// partition — transparently retries on the next replica. Because
// workers are stateless and all durable state lives in the shared
// store, replicas need no coordination beyond both registering the
// tables they serve.
type MirroredVW struct {
	replicas []*VW
}

// NewMirroredVW wires the replicas in priority order. At least one is
// required.
func NewMirroredVW(replicas ...*VW) (*MirroredVW, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: mirrored VW needs at least one replica")
	}
	return &MirroredVW{replicas: replicas}, nil
}

// RegisterTable registers the table with every replica.
func (m *MirroredVW) RegisterTable(t *lsm.Table) {
	for _, vw := range m.replicas {
		vw.RegisterTable(t)
	}
}

// Preload warms every replica (each per its own ring).
func (m *MirroredVW) Preload(t *lsm.Table) []error {
	var errs []error
	for _, vw := range m.replicas {
		errs = append(errs, vw.Preload(t)...)
	}
	return errs
}

// Search tries each replica in order, returning the first success.
// Only genuine execution failures fall through; an empty result is a
// valid answer and is returned as-is. A cancelled or timed-out ctx
// stops the fail-over chain — later replicas would just re-observe
// the same dead context.
func (m *MirroredVW) Search(ctx context.Context, table *lsm.Table, q []float32, k int, opts SearchOptions) ([]SegmentCandidate, error) {
	var firstErr error
	for _, vw := range m.replicas {
		res, err := vw.Search(ctx, table, q, k, opts)
		if err == nil {
			return res, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("cluster: all %d VW replicas failed: %w", len(m.replicas), firstErr)
}
