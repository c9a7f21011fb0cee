package testutil

import (
	"context"

	"repro/internal/grid"
)

// ReadEach serves a batch one block at a time through read, checking ctx
// before each, with per-block results: vals[i]/errs[i] correspond to ids[i].
// It gives a test double that only knows how to read one block the batch
// method of the block-reader contract (store.BlockReader, which this package
// must not import: store's own tests import it).
func ReadEach(ctx context.Context, ids []grid.BlockID, read func(grid.BlockID) ([]float32, error)) ([][]float32, []error) {
	vals := make([][]float32, len(ids))
	errs := make([]error, len(ids))
	for i, id := range ids {
		if errs[i] = ctx.Err(); errs[i] == nil {
			vals[i], errs[i] = read(id)
		}
	}
	return vals, errs
}
