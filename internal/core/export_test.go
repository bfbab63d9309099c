package core

import "repro/internal/tree"

// Router exposes a batch's per-vector router to the external tests.
func (bb *Batch) Router(vec Vector) *tree.Batch { return bb.router(vec) }
