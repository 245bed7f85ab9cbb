package cluster

import (
	"cmp"
	"context"
	"fmt"

	"blendhouse/internal/index"
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

// Occupy places a segment's scan (exec.Placement) on the first
// replica that can take it, so a query fails over per segment. A
// cancelled or timed-out ctx stops the fail-over chain — later
// replicas would just re-observe the same dead context.
func (m *MirroredVW) Occupy(ctx context.Context, t *lsm.Table, s *lsm.Segment, exact bool) (index.Searcher, func(), error) {
	var firstErr error
	for _, vw := range m.replicas {
		ix, release, err := vw.Occupy(ctx, t, s, exact)
		if err == nil {
			return ix, release, nil
		}
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		firstErr = cmp.Or(firstErr, err)
	}
	return nil, nil, fmt.Errorf("cluster: all %d VW replicas failed: %w", len(m.replicas), firstErr)
}
