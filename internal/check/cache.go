package check

import (
	"dynsum/internal/core"
)

// Cache validates the engine-side summary cache and intern table of d:
// every live entry must be reachable from the per-method key index (the
// property per-method invalidation's O(method) walk depends on), cache keys must
// name nodes inside the current view, and every interned slice must still
// hash to the table key it is filed under. The invariants live on
// unexported core structures, so the walk itself is core.DynSum's
// CheckIntegrity; this wrapper exists so callers audit the whole stack
// through one package. Quiesce the engine first.
func Cache(d *core.DynSum) error {
	return d.CheckIntegrity()
}
