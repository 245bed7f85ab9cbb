package core

import (
	"fmt"

	"blendhouse/pkg/api"
)

// Every error returned from the public entry points (Exec, Query)
// matches at most one sentinel of the failure taxonomy in pkg/api
// under errors.Is: the context's expiry is tagged by api.ContextErr,
// and the two classes the engine itself decides are built here.

// unknownTableErr builds the taxonomy error for a missing table.
func unknownTableErr(name string) error {
	return fmt.Errorf("core: %w: %q does not exist", api.ErrUnknownTable, name)
}

// planErr tags a parse/plan failure.
func planErr(err error) error {
	return fmt.Errorf("core: %w: %w", api.ErrPlan, err)
}
